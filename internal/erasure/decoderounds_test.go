package erasure

import (
	"context"
	"errors"
	"testing"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// TestDecodeRoundsMatchesSerial drives the round-synchronous parallel
// recovery peel against the serial queue peel across loss rates,
// including a heavy loss just below threshold where recovery (not
// subtraction) dominates, and an above-threshold failure where both must
// report the same recovered count.
func TestDecodeRoundsMatchesSerial(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	const cells = 6000
	code := NewCode(cells, 3, 77)
	gen := rng.New(123)
	data := make([]uint64, 20000)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)

	for _, losses := range []int{1, cells / 10, cells / 2, int(0.8 * cells)} {
		gotP := append([]uint64(nil), data...)
		gotS := append([]uint64(nil), data...)
		presentP := make([]bool, len(data))
		presentS := make([]bool, len(data))
		for i := range presentP {
			presentP[i], presentS[i] = true, true
		}
		perm := rng.New(uint64(losses)).Perm(len(data))[:losses]
		for _, i := range perm {
			gotP[i], presentP[i] = 0, false
			gotS[i], presentS[i] = 0, false
		}
		errP := code.DecodeCtx(context.Background(), gotP, presentP, checks, pool)
		errS := code.Decode(gotS, presentS, checks)
		if (errP == nil) != (errS == nil) {
			t.Fatalf("losses=%d: parallel err=%v, serial err=%v", losses, errP, errS)
		}
		if errP != nil {
			continue
		}
		for i := range data {
			if gotP[i] != data[i] {
				t.Fatalf("losses=%d: parallel decode restored symbol %d wrong", losses, i)
			}
		}
	}

	// Above threshold: both decoders stall; same sentinel error.
	tooMany := int(0.95 * cells)
	got := append([]uint64(nil), data...)
	present := make([]bool, len(data))
	for i := range present {
		present[i] = true
	}
	for _, i := range rng.New(9).Perm(len(data))[:tooMany] {
		got[i], present[i] = 0, false
	}
	if err := code.DecodeCtx(context.Background(), got, present, checks, pool); !errors.Is(err, ErrDecodeFailed) {
		t.Fatalf("above-threshold parallel decode: err = %v, want ErrDecodeFailed", err)
	}
}

// TestDecodeCtxCancel checks cooperative cancellation of both erasure
// phases.
func TestDecodeCtxCancel(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	code := NewCode(2000, 3, 5)
	gen := rng.New(42)
	data := make([]uint64, 8000)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := code.EncodeCtx(ctx, data, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("EncodeCtx(canceled): %v", err)
	}
	present := make([]bool, len(data))
	if err := code.DecodeCtx(ctx, data, present, checks, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecodeCtx(canceled): %v", err)
	}
}

// TestConcurrentDecodeRounds runs several parallel decodes of one code
// on a shared pool — the per-job state contract, meaningful under -race.
func TestConcurrentDecodeRounds(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	code := NewCode(3000, 3, 13)
	gen := rng.New(7)
	data := make([]uint64, 9000)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)
	g := pool.NewGroup(0)
	for j := 0; j < 6; j++ {
		jobGen := rng.New(uint64(1000 + j))
		g.Go(func(p *parallel.Pool) error {
			got := append([]uint64(nil), data...)
			present := make([]bool, len(data))
			for i := range present {
				present[i] = true
			}
			for _, i := range jobGen.Perm(len(data))[:1200] {
				got[i], present[i] = 0, false
			}
			if err := code.DecodeCtx(context.Background(), got, present, checks, p); err != nil {
				return err
			}
			for i := range data {
				if got[i] != data[i] {
					return errors.New("concurrent decode corrupted a symbol")
				}
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}
