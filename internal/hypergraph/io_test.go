package hypergraph

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/parallel"
	"repro/internal/rng"
)

func TestWriteReadRoundTrip(t *testing.T) {
	for _, gen := range []struct {
		name string
		g    *Hypergraph
	}{
		{"uniform", Uniform(500, 350, 4, rng.New(1), parallel.Default())},
		{"partitioned", Partitioned(600, 400, 3, rng.New(2), parallel.Default())},
		{"empty", Uniform(10, 0, 3, rng.New(3), parallel.Default())},
	} {
		var buf bytes.Buffer
		if _, err := gen.g.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", gen.name, err)
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("%s: ReadFrom: %v", gen.name, err)
		}
		if back.N != gen.g.N || back.M != gen.g.M || back.R != gen.g.R ||
			back.SubtableSize != gen.g.SubtableSize {
			t.Fatalf("%s: shape mismatch", gen.name)
		}
		for i := range gen.g.Edges {
			if back.Edges[i] != gen.g.Edges[i] {
				t.Fatalf("%s: edge data mismatch at %d", gen.name, i)
			}
		}
		// Incidence must be rebuilt correctly.
		for v := 0; v < back.N; v++ {
			if back.Degree(v) != gen.g.Degree(v) {
				t.Fatalf("%s: degree mismatch at vertex %d", gen.name, v)
			}
		}
	}
}

func TestReadFromRejectsCorruption(t *testing.T) {
	g := Uniform(100, 50, 3, rng.New(4), parallel.Default())
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), data[4:]...),
		"short hdr":   data[:20],
		"short edges": data[:len(data)-4],
	}
	for name, payload := range cases {
		if _, err := ReadFrom(bytes.NewReader(payload)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}

	// Out-of-range vertex id.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] = 0xff
	bad[len(bad)-2] = 0xff
	bad[len(bad)-3] = 0xff
	bad[len(bad)-4] = 0xff
	if _, err := ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("vertex range: err = %v, want ErrBadFormat", err)
	}
}

func TestReadFromRejectsBrokenPartition(t *testing.T) {
	g := Partitioned(300, 100, 3, rng.New(5), parallel.Default())
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the first edge's first vertex to sit in the wrong subtable
	// (vertex 250 is in subtable 2, position 0 expects subtable 0).
	data[36] = 250
	data[37], data[38], data[39] = 0, 0, 0
	if _, err := ReadFrom(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("partition violation: err = %v, want ErrBadFormat", err)
	}
}
