package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// barrierCtx is a context.Context that reports cancellation starting at
// its nth Err() call. The peelers check ctx exactly once per round (or
// subround) barrier, so the call count is a deterministic, scheduling-
// independent measure of how many barriers a peel crossed — which lets
// the tests assert "a canceled peel does less than one round of extra
// work" structurally instead of by timing.
type barrierCtx struct {
	calls       atomic.Int64
	cancelAfter int64
}

func (c *barrierCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *barrierCtx) Done() <-chan struct{}       { return nil }
func (c *barrierCtx) Value(any) any               { return nil }
func (c *barrierCtx) Err() error {
	if c.calls.Add(1) > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

// TestPeelAbortsWithinOneRound is the acceptance test for prompt
// cancellation: on a 2^22-vertex instance, a context that cancels after
// a few rounds stops the peel at the very next barrier — zero further
// Err() calls, hence zero further rounds of work.
func TestPeelAbortsWithinOneRound(t *testing.T) {
	if testing.Short() {
		t.Skip("2^22-vertex instance; skipped in -short")
	}
	if raceEnabled {
		t.Skip("2^22-vertex instance too slow under the race detector; cancellation races are covered by TestSubtablesCtxCancel and the parallel-package tests")
	}
	n := 1 << 22
	m := n * 7 / 10
	g := hypergraph.Uniform(n, m, 3, rng.New(42), parallel.Default())

	// Reference run: count the barriers of an uncanceled peel.
	full := &barrierCtx{cancelAfter: 1 << 30}
	res, err := ParallelCtx(full, g, 2, Options{})
	if err != nil || !res.Empty() {
		t.Fatalf("reference peel: err=%v empty=%v", err, err == nil && res.Empty())
	}
	totalBarriers := full.calls.Load()
	if totalBarriers < 5 {
		t.Fatalf("reference peel crossed only %d barriers; instance too easy for the test", totalBarriers)
	}

	// Canceled run: cancel after 3 barriers; the peel must return at the
	// 4th check (the first canceled one) without crossing another.
	const allow = 3
	cc := &barrierCtx{cancelAfter: allow}
	cres, err := ParallelCtx(cc, g, 2, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled peel: err = %v, want Canceled", err)
	}
	if cres != nil {
		t.Fatal("canceled peel returned a result")
	}
	if got := cc.calls.Load(); got != allow+1 {
		t.Fatalf("peel crossed %d barriers after cancellation (total Err() calls %d, want %d): more than one round of extra work",
			got-(allow+1), got, allow+1)
	}
}

// TestSubtablesCtxCancel exercises the subround-barrier checks of the
// subtable peeler.
func TestSubtablesCtxCancel(t *testing.T) {
	g := hypergraph.Partitioned(3*40000, 80000, 3, rng.New(7), parallel.Default())
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"Subtables", func(ctx context.Context) error {
			_, err := SubtablesCtx(ctx, g, 2, Options{})
			return err
		}},
	} {
		// Uncanceled: matches the ctx-free entry point.
		if err := tc.run(context.Background()); err != nil {
			t.Fatalf("%s(Background): %v", tc.name, err)
		}
		// Canceled after 2 subround barriers: stops at the 3rd check.
		cc := &barrierCtx{cancelAfter: 2}
		if err := tc.run(cc); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s(canceled): err = %v, want Canceled", tc.name, err)
		}
		if got := cc.calls.Load(); got != 3 {
			t.Fatalf("%s: %d Err() calls after cancellation, want exactly 3", tc.name, got)
		}
	}
}

// TestParallelOrderCtxCancel exercises the round-barrier checks of the
// ordered peel: a context canceled after N barriers stops the peel at
// the very next check, with zero further rounds of work.
func TestParallelOrderCtxCancel(t *testing.T) {
	g := hypergraph.Uniform(120000, 84000, 3, rng.New(8), parallel.Default())
	// Uncanceled: matches the ctx-free entry point and counts barriers.
	full := &barrierCtx{cancelAfter: 1 << 30}
	res, err := ParallelOrderCtx(full, g, 2, Options{})
	if err != nil || !res.Empty() {
		t.Fatalf("reference ordered peel: err=%v", err)
	}
	if full.calls.Load() < 5 {
		t.Fatalf("reference crossed only %d barriers; instance too easy", full.calls.Load())
	}
	cc := &barrierCtx{cancelAfter: 3}
	cres, err := ParallelOrderCtx(cc, g, 2, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ordered peel: err = %v, want Canceled", err)
	}
	if cres != nil {
		t.Fatal("canceled ordered peel returned a result")
	}
	if got := cc.calls.Load(); got != 4 {
		t.Fatalf("%d Err() calls after cancellation, want exactly 4", got)
	}
}
