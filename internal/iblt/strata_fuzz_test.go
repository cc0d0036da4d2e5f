package iblt

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/parallel"
)

// TestStrataWireRejectsNonCanonicalStrata covers the Subtract-panic
// hardening: a stratum whose header re-declares a different geometry or
// seed (same wire size, so the framing checks pass) must be rejected at
// parse time — accepted, it would panic inside Subtract against any
// honest estimator, a crash an attacker could trigger with one datagram.
func TestStrataWireRejectsNonCanonicalStrata(t *testing.T) {
	e := NewStrataEstimator(7)
	e.InsertAllWithPool([]uint64{1, 2, 3, 4, 5}, parallel.Default())
	valid, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stratumSize := e.strata[0].WireSize()

	cases := map[string]func([]byte) []byte{
		// First stratum's table header starts at offset 8. Its layout:
		// magic(4) version(2) r(2) subSize(8) seed(8).
		"stratum seed flipped": func(d []byte) []byte {
			d[8+16] ^= 0xff
			return d
		},
		"stratum geometry reshaped same wire size": func(d []byte) []byte {
			// The canonical stratum has r=3; re-declare r' = 1 with
			// subSize' = 3*subSize: same cell count, same wire size,
			// different shape. (r=1 is also outside [2,8], so the table
			// parser itself rejects it — use r'=2 only if divisible.)
			r := int(binary.LittleEndian.Uint16(d[8+6:]))
			sub := int(binary.LittleEndian.Uint64(d[8+8:]))
			n := r * sub
			if n%2 != 0 {
				t.Skip("canonical cell count not divisible by 2")
			}
			binary.LittleEndian.PutUint16(d[8+6:], 2)
			binary.LittleEndian.PutUint64(d[8+8:], uint64(n/2))
			return d
		},
		"second stratum seed flipped": func(d []byte) []byte {
			d[8+stratumSize+16] ^= 0xff
			return d
		},
		"trailing byte": func(d []byte) []byte {
			return append(d, 0)
		},
		"truncated last stratum": func(d []byte) []byte {
			return d[:len(d)-1]
		},
	}
	for name, corrupt := range cases {
		var got StrataEstimator
		data := corrupt(append([]byte(nil), valid...))
		if err := got.UnmarshalBinary(data); !errors.Is(err, ErrBadWireFormat) {
			t.Errorf("%s: err = %v, want ErrBadWireFormat", name, err)
		}
	}
}

// FuzzStrataUnmarshal mirrors FuzzUnmarshalBinary for the strata wire
// format, which now arrives off the network: arbitrary payloads must be
// rejected with ErrBadWireFormat or produce a canonical estimator that
// round-trips byte-identically and is safe to Subtract against an
// honest estimator of the same seed — never a panic, never an
// estimator that detonates later.
func FuzzStrataUnmarshal(f *testing.F) {
	e := NewStrataEstimator(42)
	e.InsertAllWithPool([]uint64{10, 20, 30}, parallel.Default())
	seedData, _ := e.MarshalBinary()
	f.Add(seedData)
	f.Add([]byte{})
	f.Add(seedData[:8])
	f.Add(seedData[:len(seedData)-3])
	flipped := append([]byte(nil), seedData...)
	flipped[8+16] ^= 0xff // first stratum's seed
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		var got StrataEstimator
		if err := got.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrBadWireFormat) {
				t.Fatalf("non-wire error: %v", err)
			}
			return
		}
		// Accepted: the payload must be exactly one canonical estimator.
		if got.WireSize() != len(data) {
			t.Fatalf("accepted %d bytes but WireSize() = %d", len(data), got.WireSize())
		}
		back, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(back) != string(data) {
			t.Fatal("accepted payload does not round-trip byte-identically")
		}
		// Canonical geometry means Subtract against an honest estimator
		// of the same seed must not panic.
		got.Subtract(NewStrataEstimator(got.Seed()))
		_ = got.Estimate()
	})
}
