// Package layout defines the versioned flat byte layout that connects
// the build-time and serve-time representations of the peeling-built
// static functions (the BDZ MPHF and the Bloomier filter): builders
// produce a contiguous, checksummed little-endian image, and lookups
// run against a strictly validated zero-copy view of the same bytes —
// whether those bytes came out of a fresh build, os.ReadFile, or an
// mmap'd read-only file.
//
// # Format (version 1)
//
// Every image starts with a fixed 64-byte header:
//
//	off  size  field
//	  0     4  magic "SFN1"
//	  4     2  version (uint16, = 1)
//	  6     2  kind (uint16: 1 = MPHF, 2 = Bloomier)
//	  8     8  checksum (uint64 over the whole image minus this field)
//	 16     8  seed (the successful build attempt's seed)
//	 24    24  hseed[0..2] (the three vertex-hash seeds)
//	 48     8  keys (number of build keys)
//	 56     8  subSize (vertices per part; 3 parts)
//
// followed by the kind's arrays, each starting at an 8-byte-aligned
// offset so the uint64/uint32 views can alias the bytes in place:
//
//	MPHF:     g[3·subSize]uint8, pad8, used[⌈n/64⌉]uint64, rank[⌈n/64⌉+1]uint32, pad8
//	Bloomier: slots[3·subSize]uint64
//
// # Zero-copy contract
//
// Open never copies an array: the G/Used/Rank/Slots views alias the
// input bytes, so a multi-gigabyte image costs no decode allocation and
// may live in a read-only mapping. The price is an alignment rule — the
// image base must be 8-byte aligned (heap allocations and mmap both
// are; Aligned repairs an unaligned slice by copying). Every geometry
// field is attacker-controlled and is bounded by the payload before any
// size arithmetic, mirroring iblt.UnmarshalBinary: a hostile header is
// rejected with ErrBadImage without large allocation or panic, and the
// checksum rejects silent corruption of the arrays.
//
// # Build driver
//
// Both kinds are built the same way — keys hashed to 3-partite edges,
// the ordered k = 2 peel, a seed ladder on failure, and back-substitution
// in reverse peel rounds — so that algorithm lives here once, as
// Builder.BuildCtx. The mphf and bloomier packages each fix a Builder
// and supply only their per-round back-substitution Kernel.
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/rng"
)

// Kind identifies which static structure an image holds.
type Kind uint16

const (
	// KindMPHF is a BDZ minimal perfect hash function image.
	KindMPHF Kind = 1
	// KindBloomier is a Bloomier-filter (static key → value map) image.
	KindBloomier Kind = 2
)

// String implements fmt.Stringer for diagnostics (peeltool dump).
func (k Kind) String() string {
	switch k {
	case KindMPHF:
		return "mphf"
	case KindBloomier:
		return "bloomier"
	default:
		return fmt.Sprintf("kind(%d)", uint16(k))
	}
}

const (
	magic = "SFN1"
	// Version is the current format version.
	Version = 1
	// HeaderSize is the fixed header length; all array sections follow
	// it at 8-byte-aligned offsets.
	HeaderSize = 64
	// Arity is the number of vertex hashes per key — both layouts are
	// 3-uniform (BDZ / Bloomier use three hash positions).
	Arity = 3
)

// ErrBadImage is returned by Open for corrupt, truncated, or hostile
// images (bad magic/version/kind, geometry the payload cannot hold,
// checksum mismatch).
var ErrBadImage = errors.New("layout: bad image")

// ErrUnaligned is returned by Open when the image base is not 8-byte
// aligned, which would make the zero-copy uint64/uint32 views illegal.
// Heap-allocated buffers and mmap'd files are always aligned; repair an
// unaligned slice (e.g. a subslice of a larger read) with Aligned.
var ErrUnaligned = errors.New("layout: image base not 8-byte aligned")

// Image is an open flat image: the parsed header fields plus zero-copy
// array views into the underlying bytes. The non-nil views depend on
// Kind (G/Used/Rank for MPHF, Slots for Bloomier). Images returned by
// the New constructors are writable by the builder that owns them;
// images returned by Open must be treated as read-only — they may alias
// a read-only mapping.
type Image struct {
	data []byte

	Kind    Kind
	Seed    uint64        // successful attempt seed
	HSeed   [Arity]uint64 // vertex-hash seeds
	Keys    int           // number of build keys
	SubSize int           // vertices per part (Vertices() = 3·SubSize)

	// MPHF sections.
	G    []uint8  // 2-bit g values, one per byte
	Used []uint64 // bitmap of selected vertices
	Rank []uint32 // per-word prefix popcounts over Used

	// Bloomier section.
	Slots []uint64 // XOR slot array
}

// VertexTriple is the serve-time hashing rule shared by every image
// kind: key x selects one vertex per part, part j drawn by
// multiply-shift from Mix64(x ^ hseed[j]). It is part of the format
// contract — builders and lookups must agree on it byte for byte.
func VertexTriple(hseed [Arity]uint64, subSize int, x uint64) [Arity]uint32 {
	var vs [Arity]uint32
	for j := 0; j < Arity; j++ {
		h := rng.Mix64(x ^ hseed[j])
		vs[j] = uint32(j*subSize) + uint32((h>>32)*uint64(subSize)>>32)
	}
	return vs
}

// HasDuplicateKeys reports whether keys holds a repeated key, which no
// image kind can be built from. Builders call it only after a failed
// peel: duplicate keys map to identical vertex triples, and identical
// edges always sit in the 2-core, so an empty core already proves the
// keys distinct and a successful build never pays for the sort.
func HasDuplicateKeys(keys []uint64) bool {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}

// Vertices returns the total vertex count n = 3·SubSize.
func (im *Image) Vertices() int { return im.SubSize * Arity }

// Bytes returns the image's backing bytes without copying. For a
// freshly built image call Marshal first (or instead) so the checksum
// covers the final array contents.
func (im *Image) Bytes() []byte { return im.data }

// Len returns the image size in bytes.
func (im *Image) Len() int { return len(im.data) }

// Marshal seals the image — recomputes the header checksum over the
// current array contents — and returns the backing bytes. It performs
// no copy: the returned slice is the image itself, contiguous and ready
// for os.WriteFile or a network send, and Open of those exact bytes
// reconstructs an identical view.
//
//peelvet:deterministic
func (im *Image) Marshal() []byte {
	binary.LittleEndian.PutUint64(im.data[8:], imageChecksum(im.data))
	return im.data
}

// mphfOffsets returns the section offsets of an MPHF image with the
// given subSize. Callers must have bounded subSize so that no product
// here overflows (Open checks subSize ≤ payload/Arity first).
func mphfOffsets(subSize int) (gOff, usedOff, rankOff, total, words int) {
	n := subSize * Arity
	gOff = HeaderSize
	usedOff = gOff + align8(n)
	words = (n + 63) / 64
	rankOff = usedOff + words*8
	total = rankOff + align8((words+1)*4)
	return
}

func align8(n int) int { return (n + 7) &^ 7 }

// size returns the total image size for a kind and subSize.
func size(kind Kind, subSize int) int {
	if kind == KindBloomier {
		return HeaderSize + subSize*Arity*8
	}
	_, _, _, total, _ := mphfOffsets(subSize)
	return total
}

// NewMPHF allocates a writable zeroed MPHF image with the header fields
// filled in; the builder writes G/Used/Rank in place and calls Marshal
// to seal it. subSize must be ≥ 2 and keys ≤ 3·subSize (the builders
// guarantee both).
func NewMPHF(seed uint64, hseed [Arity]uint64, keys, subSize int) *Image {
	return newImage(KindMPHF, seed, hseed, keys, subSize)
}

// NewBloomier allocates a writable zeroed Bloomier image; the builder
// writes Slots in place and calls Marshal to seal it.
func NewBloomier(seed uint64, hseed [Arity]uint64, keys, subSize int) *Image {
	return newImage(KindBloomier, seed, hseed, keys, subSize)
}

// newImage allocates the aligned backing buffer. Panics if the geometry
// is invalid — the exported builders guarantee both arguments, so a trip
// here is a bug in this package, not bad input.
func newImage(kind Kind, seed uint64, hseed [Arity]uint64, keys, subSize int) *Image {
	if subSize < 2 || keys < 0 || keys > subSize*Arity {
		panic(fmt.Sprintf("layout: invalid geometry keys=%d subSize=%d", keys, subSize))
	}
	total := size(kind, subSize)
	// Heap []byte allocations of this size are 8-aligned in practice,
	// but the zero-copy views make that a hard requirement, so
	// over-allocate and slice to a provably aligned base.
	buf := make([]byte, total+7)
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(buf))) & 7)
	data := buf[off : off+total : off+total]

	copy(data, magic)
	binary.LittleEndian.PutUint16(data[4:], Version)
	binary.LittleEndian.PutUint16(data[6:], uint16(kind))
	binary.LittleEndian.PutUint64(data[16:], seed)
	for j, h := range hseed {
		binary.LittleEndian.PutUint64(data[24+8*j:], h)
	}
	binary.LittleEndian.PutUint64(data[48:], uint64(keys))
	binary.LittleEndian.PutUint64(data[56:], uint64(subSize))

	im := &Image{data: data, Kind: kind, Seed: seed, HSeed: hseed, Keys: keys, SubSize: subSize}
	im.view()
	return im
}

// Open validates data as a flat image and returns a zero-copy view over
// it: no array is decoded or copied, the views alias data in place, so
// data must stay immutable (and mapped) for the life of the Image.
// Validation is strict and allocation-free in the rejection paths —
// every geometry field is bounded by the payload before any size
// arithmetic, the total length must match the geometry exactly, and the
// checksum must match — so hostile images of any shape return
// ErrBadImage (or ErrUnaligned) rather than panicking or allocating.
func Open(data []byte) (*Image, error) {
	if len(data) < HeaderSize || string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: missing header", ErrBadImage)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadImage, v)
	}
	kind := Kind(binary.LittleEndian.Uint16(data[6:]))
	// subSize and keys are attacker-controlled: bound subSize by what
	// the payload can actually hold BEFORE any size arithmetic, so the
	// expected-size computation can neither overflow int nor justify a
	// huge allocation (cf. iblt.UnmarshalBinary).
	var perSub uint64 // minimum payload bytes per unit of subSize
	switch kind {
	case KindMPHF:
		perSub = Arity // the g array alone: 3 bytes
	case KindBloomier:
		perSub = Arity * 8 // the slot array: 24 bytes
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrBadImage, uint16(kind))
	}
	payload := uint64(len(data) - HeaderSize)
	sub64 := binary.LittleEndian.Uint64(data[56:])
	if sub64 < 2 || sub64 > payload/perSub {
		return nil, fmt.Errorf("%w: subSize %d exceeds %d-byte payload", ErrBadImage, sub64, len(data))
	}
	subSize := int(sub64)
	n := subSize * Arity
	keys64 := binary.LittleEndian.Uint64(data[48:])
	if keys64 > uint64(n) {
		return nil, fmt.Errorf("%w: %d keys exceed %d vertices", ErrBadImage, keys64, n)
	}
	if want := size(kind, subSize); len(data) != want {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrBadImage, len(data), want)
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(data)))&7 != 0 {
		return nil, ErrUnaligned
	}
	if got, want := imageChecksum(data), binary.LittleEndian.Uint64(data[8:]); got != want {
		return nil, fmt.Errorf("%w: checksum %#x, want %#x", ErrBadImage, got, want)
	}

	im := &Image{
		data:    data,
		Kind:    kind,
		Seed:    binary.LittleEndian.Uint64(data[16:]),
		Keys:    int(keys64),
		SubSize: subSize,
	}
	for j := range im.HSeed {
		im.HSeed[j] = binary.LittleEndian.Uint64(data[24+8*j:])
	}
	im.view()
	return im, nil
}

// view builds the kind's zero-copy array views over data. The offsets
// are 8-aligned multiples into an 8-aligned base, so the unsafe casts
// honor the alignment rules of uint64 and uint32.
func (im *Image) view() {
	d := im.data
	n := im.SubSize * Arity
	switch im.Kind {
	case KindMPHF:
		gOff, usedOff, rankOff, _, words := mphfOffsets(im.SubSize)
		im.G = d[gOff : gOff+n : gOff+n]
		im.Used = unsafe.Slice((*uint64)(unsafe.Pointer(&d[usedOff])), words)
		im.Rank = unsafe.Slice((*uint32)(unsafe.Pointer(&d[rankOff])), words+1)
	case KindBloomier:
		im.Slots = unsafe.Slice((*uint64)(unsafe.Pointer(&d[HeaderSize])), n)
	}
}

// Aligned returns data unchanged when its base is already 8-byte
// aligned, and an aligned copy otherwise — the escape hatch for byte
// slices of unknown provenance (subslices of pooled buffers, decoded
// network frames) headed for Open. os.ReadFile and mmap results are
// aligned already and pass through untouched.
func Aligned(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(unsafe.SliceData(data)))&7 == 0 {
		return data
	}
	buf := make([]byte, len(data)+7)
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(buf))) & 7)
	out := buf[off : off+len(data) : off+len(data)]
	copy(out, data)
	return out
}

// imageChecksum hashes every image byte except the checksum field
// itself: the magic/version/kind word, then everything from the seed
// on. It is a Mix64 chain over 8-byte words — fast corruption
// detection, not cryptographic integrity.
func imageChecksum(data []byte) uint64 {
	h := chainsum(0x73666e315f696d67, data[:8]) // "sfn1_img"
	return chainsum(h, data[16:])
}

func chainsum(h uint64, b []byte) uint64 {
	h ^= uint64(len(b)) * 0x9e3779b97f4a7c15
	for len(b) >= 8 {
		h = rng.Mix64(h ^ binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = rng.Mix64(h ^ binary.LittleEndian.Uint64(tail[:]))
	}
	return h
}
