package server

// Exported frame codec, request encoders and reply parsers — the
// surface the companion client package (and any other in-tree caller
// speaking the protocol) builds on. They are thin names over the package's internal
// codec, so the client and server can never drift apart on the wire
// format: both sides compile against the same byte layouts.

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro"
)

// ReadFrame reads one frame from r, bounding the length prefix by
// maxFrame before allocating the payload. Protocol violations are
// reported as ErrProtocol wrappers; io errors pass through.
func ReadFrame(r io.Reader, maxFrame int) (typ byte, id uint64, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	length := int(binary.LittleEndian.Uint32(hdr[:]))
	if length < frameOverhead {
		return 0, 0, nil, fmt.Errorf("%w: frame length %d below header size", ErrProtocol, length)
	}
	if length > maxFrame {
		return 0, 0, nil, fmt.Errorf("%w: frame length %d exceeds cap %d", ErrProtocol, length, maxFrame)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return body[0], binary.LittleEndian.Uint64(body[1:9]), body[9:], nil
}

// AppendFrame appends one encoded frame to buf and returns it — the
// frame is built contiguously so the writer can hand the kernel a
// single Write (no torn frame on a clean path).
func AppendFrame(buf []byte, typ byte, id uint64, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frameOverhead+len(payload)))
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return append(buf, payload...)
}

// DeadlineMs converts a remaining-time duration into the wire's uint32
// relative-deadline field: milliseconds rounded up, clamped to at least
// 1 for already-expired deadlines (fail fast, not unbounded).
func DeadlineMs(remaining time.Duration) uint32 { return deadlineMs(remaining, true) }

// EncodeReconcileReq builds an OpReconcile request payload.
func EncodeReconcileReq(deadline uint32, seed uint64, headroom float64, local, remote []uint64) []byte {
	return (&reconcileReq{deadline: deadline, seed: seed, headroom: headroom, local: local, remote: remote}).encode()
}

// EncodeDecodeReq builds an OpDecode request payload; sketch is the
// hardened iblt wire format.
func EncodeDecodeReq(deadline uint32, sketch []byte) []byte {
	return (&decodeReq{deadline: deadline, sketch: sketch}).encode()
}

// EncodeBuildReq builds an OpBuildMPHF request payload.
func EncodeBuildReq(deadline uint32, seed uint64, keys []uint64) []byte {
	return (&buildReq{deadline: deadline, seed: seed, keys: keys}).encode()
}

// EncodeLookupReq builds an OpLookup request payload.
func EncodeLookupReq(deadline uint32, keys []uint64) []byte {
	return (&lookupReq{deadline: deadline, keys: keys}).encode()
}

// EncodeSwapReq builds an OpSwapImage request payload; image is a flat
// layout image.
func EncodeSwapReq(deadline uint32, image []byte) []byte {
	return (&swapReq{deadline: deadline, image: image}).encode()
}

// EncodeEstimateReq builds an OpEstimate request payload from two
// marshaled strata estimators.
func EncodeEstimateReq(deadline uint32, localEstimator, remoteEstimator []byte) []byte {
	return (&estimateReq{deadline: deadline, local: localEstimator, remote: remoteEstimator}).encode()
}

// ParseReconcileResult parses an OpReconcile RESULT payload.
func ParseReconcileResult(p []byte) (*ReconcileResult, error) { return parseReconcileResult(p) }

// ParseDecodeResult parses an OpDecode RESULT payload.
func ParseDecodeResult(p []byte) (*DecodeResult, error) { return parseDecodeResult(p) }

// ParseLookupResult parses an OpLookup RESULT payload.
func ParseLookupResult(p []byte) (*LookupResult, error) { return parseLookupResult(p) }

// ParseImagePayload parses a RESULT payload holding one length-prefixed
// byte blob (the OpBuildMPHF reply: a flat MPHF image). The image is
// re-based to 8-byte alignment when the frame left it misaligned, so
// the zero-copy loaders accept it directly.
func ParseImagePayload(p []byte) ([]byte, error) {
	r := &wireReader{b: p}
	img := r.bytesv("image")
	if err := r.done(); err != nil {
		return nil, err
	}
	return repro.AlignImage(img), nil
}

// ParseUint64Payload parses a RESULT payload holding a single uint64
// (the OpSwapImage generation and OpEstimate estimate replies).
func ParseUint64Payload(p []byte) (uint64, error) {
	r := &wireReader{b: p}
	v := r.uint64v("value")
	if err := r.done(); err != nil {
		return 0, err
	}
	return v, nil
}

// ParseError parses an ERROR reply payload into its typed *Error.
func ParseError(p []byte) (*Error, error) { return parseErrorPayload(p) }
