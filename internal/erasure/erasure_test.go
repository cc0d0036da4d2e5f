package erasure

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/threshold"
)

func randomData(n int, seed uint64) []uint64 {
	gen := rng.New(seed)
	data := make([]uint64, n)
	for i := range data {
		data[i] = gen.Uint64()
	}
	return data
}

// erase knocks out `losses` random distinct symbols and returns the
// corrupted copy plus the presence mask.
func erase(data []uint64, losses int, seed uint64) ([]uint64, []bool) {
	gen := rng.New(seed)
	corrupted := append([]uint64(nil), data...)
	present := make([]bool, len(data))
	for i := range present {
		present[i] = true
	}
	perm := gen.Perm(len(data))
	for _, i := range perm[:losses] {
		corrupted[i] = 0
		present[i] = false
	}
	return corrupted, present
}

func TestRoundTripNoLoss(t *testing.T) {
	data := randomData(10000, 1)
	code := NewCode(1500, 3, 7)
	checks := code.Encode(data)
	got := append([]uint64(nil), data...)
	present := make([]bool, len(data))
	for i := range present {
		present[i] = true
	}
	if err := code.Decode(got, present, checks); err != nil {
		t.Fatalf("no-loss decode: %v", err)
	}
}

func TestRecoversBelowThreshold(t *testing.T) {
	// 1000 losses against 1500 check cells: load 0.67 < 0.818.
	data := randomData(20000, 2)
	code := NewCode(1500, 3, 7)
	checks := code.Encode(data)
	corrupted, present := erase(data, 1000, 3)
	if err := code.Decode(corrupted, present, checks); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range data {
		if corrupted[i] != data[i] {
			t.Fatalf("symbol %d wrong after decode", i)
		}
		if !present[i] {
			t.Fatalf("symbol %d not marked recovered", i)
		}
	}
}

func TestFailsAboveThreshold(t *testing.T) {
	// 1400 losses against 1500 cells: load 0.93 > 0.818 — must stall.
	data := randomData(20000, 4)
	code := NewCode(1500, 3, 9)
	checks := code.Encode(data)
	corrupted, present := erase(data, 1400, 5)
	err := code.Decode(corrupted, present, checks)
	if !errors.Is(err, ErrDecodeFailed) {
		t.Fatalf("expected ErrDecodeFailed, got %v", err)
	}
	// Partially recovered symbols must still be correct.
	for i := range data {
		if present[i] && corrupted[i] != data[i] {
			t.Fatalf("symbol %d wrong despite being marked recovered", i)
		}
	}
}

func TestThresholdSharpness(t *testing.T) {
	// Success probability should flip between loads 0.7 and 0.95 around
	// c*(2,3) ~ 0.818.
	cstar, _ := threshold.Threshold(2, 3)
	data := randomData(30000, 6)
	code := NewCode(2000, 3, 11)
	checks := code.Encode(data)

	lowLoss := int(0.85 * cstar * 2000) // ~0.70 load
	corrupted, present := erase(data, lowLoss, 7)
	if err := code.Decode(corrupted, present, checks); err != nil {
		t.Errorf("decode failed at load %.2f below threshold: %v",
			float64(lowLoss)/2000, err)
	}

	highLoss := int(1.15 * cstar * 2000) // ~0.94 load
	corrupted, present = erase(data, highLoss, 8)
	if err := code.Decode(corrupted, present, checks); err == nil {
		t.Errorf("decode succeeded at load %.2f above threshold", float64(highLoss)/2000)
	}
}

func TestMaxTolerableLoss(t *testing.T) {
	cstar, _ := threshold.Threshold(2, 3)
	code := NewCode(2000, 3, 1)
	want := int(cstar * 2000)
	if got := code.MaxTolerableLoss(cstar); got != want {
		t.Errorf("MaxTolerableLoss = %d, want %d", got, want)
	}
}

func TestR4Code(t *testing.T) {
	data := randomData(15000, 9)
	code := NewCode(1024, 4, 13)
	checks := code.Encode(data)
	corrupted, present := erase(data, 700, 10) // load 0.68 < 0.772
	if err := code.Decode(corrupted, present, checks); err != nil {
		t.Fatalf("r=4 decode: %v", err)
	}
	for i := range data {
		if corrupted[i] != data[i] {
			t.Fatalf("symbol %d wrong", i)
		}
	}
}

func TestPositionsDistinct(t *testing.T) {
	code := NewCode(64, 4, 3)
	pos := make([]int, 4)
	for i := 0; i < 5000; i++ {
		code.positions(i, pos)
		for a := 0; a < 4; a++ {
			if pos[a] < 0 || pos[a] >= 64 {
				t.Fatalf("index %d position out of range: %d", i, pos[a])
			}
			for b := a + 1; b < 4; b++ {
				if pos[a] == pos[b] {
					t.Fatalf("index %d has duplicate positions", i)
				}
			}
		}
	}
}

func TestValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"r too small": func() { NewCode(100, 2, 0) },
		"r too big":   func() { NewCode(100, 9, 0) },
		"no cells":    func() { NewCode(0, 3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDecodeShapeMismatch(t *testing.T) {
	c := NewCode(16, 3, 0)
	for name, err := range map[string]error{
		"mask mismatch": c.Decode(make([]uint64, 4), make([]bool, 5), make([]Cell, 16)),
		"check size":    c.Decode(make([]uint64, 4), make([]bool, 4), make([]Cell, 15)),
	} {
		if !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("%s: got %v, want ErrShapeMismatch", name, err)
		}
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	err := c.DecodeCtx(context.Background(), make([]uint64, 4), make([]bool, 5), make([]Cell, 16), pool)
	if !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("DecodeCtx: got %v, want ErrShapeMismatch", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	// Property: any data block with losses below half the cells (load
	// 0.5, well under threshold) decodes exactly.
	f := func(seed uint64, nRaw, lossRaw uint16) bool {
		n := int(nRaw%2000) + 10
		cells := 256
		losses := int(lossRaw) % (cells / 2)
		if losses > n {
			losses = n
		}
		data := randomData(n, seed)
		code := NewCode(cells, 3, seed^0x1234)
		checks := code.Encode(data)
		corrupted, present := erase(data, losses, seed^0x5678)
		if err := code.Decode(corrupted, present, checks); err != nil {
			return false
		}
		for i := range data {
			if corrupted[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	data := randomData(1<<16, 1)
	code := NewCode(1<<13, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.Encode(data)
	}
}

func BenchmarkDecode(b *testing.B) {
	data := randomData(1<<16, 1)
	code := NewCode(1<<13, 3, 1)
	checks := code.Encode(data)
	corrupted, present := erase(data, 1<<12, 2) // load 0.5
	scratchD := make([]uint64, len(data))
	scratchP := make([]bool, len(present))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratchD, corrupted)
		copy(scratchP, present)
		if err := code.Decode(scratchD, scratchP, checks); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeWithPoolMatchesSerial checks the pool-threaded encoder
// (EncodeCtx) is cell-for-cell identical to the serial one (XOR/add
// updates commute).
func TestEncodeWithPoolMatchesSerial(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	data := randomData(20000, 21)
	code := NewCode(1500, 3, 7)
	serial := code.Encode(data)
	pooled, err := code.EncodeCtx(context.Background(), data, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != pooled[i] {
			t.Fatalf("cell %d differs: serial %+v pooled %+v", i, serial[i], pooled[i])
		}
	}
}

// TestDecodeWithPoolMatchesSerial checks the pool-threaded decoder
// (DecodeCtx) recovers exactly what the serial one does, on both
// succeeding and stalling loss rates.
func TestDecodeWithPoolMatchesSerial(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	data := randomData(20000, 22)
	code := NewCode(1500, 3, 7)
	checks, err := code.EncodeCtx(context.Background(), data, pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, losses := range []int{0, 1000, 1400} {
		gotS, presentS := erase(data, losses, 23)
		gotP, presentP := erase(data, losses, 23)
		errS := code.Decode(gotS, presentS, checks)
		errP := code.DecodeCtx(context.Background(), gotP, presentP, checks, pool)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("losses %d: serial err=%v pooled err=%v", losses, errS, errP)
		}
		for i := range data {
			if gotS[i] != gotP[i] || presentS[i] != presentP[i] {
				t.Fatalf("losses %d: symbol %d diverges between serial and pooled decode", losses, i)
			}
		}
	}
}

// TestConcurrentErasureJobsSharedPool runs several encode+decode jobs
// concurrently on one shared pool (the multi-tenant serving pattern).
func TestConcurrentErasureJobsSharedPool(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	group := pool.NewGroup(0)
	for j := 0; j < 6; j++ {
		group.Go(func(p *parallel.Pool) error {
			data := randomData(8000+500*j, uint64(30+j))
			code := NewCode(1200, 3, uint64(7+j))
			checks, err := code.EncodeCtx(context.Background(), data, p)
			if err != nil {
				return err
			}
			corrupted, present := erase(data, 700, uint64(90+j))
			if err := code.DecodeCtx(context.Background(), corrupted, present, checks, p); err != nil {
				return err
			}
			for i := range data {
				if corrupted[i] != data[i] {
					return errors.New("recovered symbol mismatch")
				}
			}
			return nil
		})
	}
	if err := group.Wait(); err != nil {
		t.Fatal(err)
	}
}
