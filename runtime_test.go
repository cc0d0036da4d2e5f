package repro

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func testRuntimeKeys(n int, seed uint64) []uint64 {
	keys := make([]uint64, n)
	s := seed
	for i := range keys {
		// SplitMix64-style stream; nonzero keys for IBLT compatibility.
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		keys[i] = z ^ (z >> 31)
		if keys[i] == 0 {
			keys[i] = 1
		}
	}
	return keys
}

// TestRuntimeServesAllWorkloads drives every typed Runtime method plus
// Go end to end on one shared runtime, then checks stats and shutdown
// semantics.
func TestRuntimeServesAllWorkloads(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 4, MaxJobs: 8})
	ctx := context.Background()

	// Peel + subtable peel.
	g := NewUniformHypergraph(60000, 42000, 3, 1)
	res, err := rt.Peel(ctx, g, 2, PeelOptions{})
	if err != nil || !res.Empty() {
		t.Fatalf("Peel: err=%v empty=%v", err, err == nil && res.Empty())
	}
	if want := core.Parallel(g, 2, core.Options{}); res.Rounds != want.Rounds || res.CoreVertices != want.CoreVertices {
		t.Fatalf("Runtime.Peel diverges from core.Parallel: %d/%d vs %d/%d",
			res.Rounds, res.CoreVertices, want.Rounds, want.CoreVertices)
	}
	pg := NewPartitionedHypergraph(3*20000, 40000, 3, 2)
	if sres, err := rt.PeelSubtables(ctx, pg, 2, PeelOptions{}); err != nil || !sres.Empty() {
		t.Fatalf("PeelSubtables: err=%v", err)
	}

	// IBLT decode.
	keys := testRuntimeKeys(20000, 3)
	table := NewIBLT(30000, 3, 99)
	table.InsertAll(keys)
	dres, err := rt.Decode(ctx, table.Clone())
	if err != nil || !dres.Complete || len(dres.Added) != len(keys) {
		t.Fatalf("Decode: err=%v complete=%v added=%d", err, dres != nil && dres.Complete, len(dres.Added))
	}

	// MPHF build: perfect and minimal.
	f, err := rt.BuildMPHF(ctx, keys, 7)
	if err != nil {
		t.Fatalf("BuildMPHF: %v", err)
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		i := f.Lookup(k)
		if i < 0 || i >= len(keys) || seen[i] {
			t.Fatalf("BuildMPHF: lookup collision or out of range at %d", i)
		}
		seen[i] = true
	}

	// Static map build.
	values := testRuntimeKeys(len(keys), 4)
	sm, err := rt.BuildStaticMap(ctx, keys, values, 8)
	if err != nil {
		t.Fatalf("BuildStaticMap: %v", err)
	}
	for i, k := range keys {
		if sm.Lookup(k) != values[i] {
			t.Fatalf("BuildStaticMap: wrong value for key %d", i)
		}
	}

	// Set reconciliation.
	local := append(append([]uint64(nil), keys...), testRuntimeKeys(50, 5)...)
	remote := append(append([]uint64(nil), keys...), testRuntimeKeys(60, 6)...)
	onlyL, onlyR, _, err := rt.Reconcile(ctx, local, remote, 10, 1.5)
	if err != nil || len(onlyL) != 50 || len(onlyR) != 60 {
		t.Fatalf("Reconcile: err=%v |L|=%d |R|=%d", err, len(onlyL), len(onlyR))
	}

	// Erasure encode + decode.
	code := NewErasureCode(4000, 3, 11)
	data := testRuntimeKeys(10000, 7)
	checks, err := rt.EncodeErasure(ctx, code, data)
	if err != nil {
		t.Fatalf("EncodeErasure: %v", err)
	}
	got := append([]uint64(nil), data...)
	present := make([]bool, len(data))
	for i := range present {
		present[i] = true
	}
	for i := 0; i < 2000; i++ {
		got[i*3%len(got)], present[i*3%len(got)] = 0, false
	}
	if err := rt.DecodeErasure(ctx, code, got, present, checks); err != nil {
		t.Fatalf("DecodeErasure: %v", err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("DecodeErasure: symbol %d not restored", i)
		}
	}

	// Custom job through Go.
	wait, err := rt.Go(ctx, func(ctx context.Context, p *WorkerPool) error {
		c := p.NewCounter()
		p.For(10000, 128, func(w, lo, hi int) { c.Add(w, int64(hi-lo)) })
		if c.Sum() != 10000 {
			return errors.New("undercounted")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Go: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("Go job: %v", err)
	}

	st := rt.Stats()
	if st.JobsAdmitted < 9 {
		t.Fatalf("JobsAdmitted = %d, want >= 9", st.JobsAdmitted)
	}
	if st.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", st.Workers)
	}

	// Shutdown: drains clean, then rejects everything.
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := rt.Shutdown(ctx); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("second Shutdown: err = %v, want ErrRuntimeClosed", err)
	}
	if _, err := rt.Decode(ctx, table.Clone()); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("post-shutdown Decode: err = %v, want ErrRuntimeClosed", err)
	}
	if _, err := rt.Go(ctx, func(context.Context, *WorkerPool) error { return nil }); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("post-shutdown Go: err = %v, want ErrRuntimeClosed", err)
	}
	if rej := rt.Stats().JobsRejected; rej == 0 {
		t.Fatal("JobsRejected stayed zero after post-shutdown submissions")
	}
}

// TestRuntimeCancellation checks that a canceled context aborts every
// typed method with ctx.Err() and bumps the canceled counter.
func TestRuntimeCancellation(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 4})
	defer rt.Shutdown(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	g := NewUniformHypergraph(10000, 7000, 3, 1)
	if _, err := rt.Peel(ctx, g, 2, PeelOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Peel(canceled): %v", err)
	}
	keys := testRuntimeKeys(5000, 1)
	table := NewIBLT(8000, 3, 5)
	table.InsertAll(keys)
	if _, err := rt.Decode(ctx, table.Clone()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Decode(canceled): %v", err)
	}
	if _, err := rt.BuildMPHF(ctx, keys, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildMPHF(canceled): %v", err)
	}
	if _, err := rt.BuildStaticMap(ctx, keys, keys, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildStaticMap(canceled): %v", err)
	}
	if _, _, _, err := rt.Reconcile(ctx, keys, keys, 3, 1.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Reconcile(canceled): %v", err)
	}
	code := NewErasureCode(1000, 3, 2)
	if _, err := rt.EncodeErasure(ctx, code, keys); !errors.Is(err, context.Canceled) {
		t.Fatalf("EncodeErasure(canceled): %v", err)
	}

	// A pre-canceled ctx is refused at admission (not counted as a
	// canceled job); a job canceled mid-run is.
	ctx2, cancel2 := context.WithCancel(context.Background())
	wait, err := rt.Go(ctx2, func(ctx context.Context, p *WorkerPool) error {
		cancel2()
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatalf("Go: %v", err)
	}
	if err := wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job: %v", err)
	}
	if c := rt.Stats().JobsCanceled; c == 0 {
		t.Fatal("JobsCanceled stayed zero after a mid-run cancellation")
	}
}

// TestRuntimeShutdownDrainsUnderLoad submits blocking jobs, calls
// Shutdown concurrently, and checks it waits for in-flight jobs while
// rejecting new ones — the graceful-drain contract, race-enabled.
func TestRuntimeShutdownDrainsUnderLoad(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 4})
	const jobs = 6
	release := make(chan struct{})
	var finished atomic.Int64
	waits := make([]func() error, jobs)
	for j := 0; j < jobs; j++ {
		w, err := rt.Go(context.Background(), func(ctx context.Context, p *WorkerPool) error {
			<-release
			sum := p.NewCounter()
			p.For(20000, 256, func(w, lo, hi int) { sum.Add(w, int64(hi-lo)) })
			if sum.Sum() != 20000 {
				return errors.New("draining-phase For lost chunks")
			}
			finished.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("Go %d: %v", j, err)
		}
		waits[j] = w
	}

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- rt.Shutdown(context.Background()) }()
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v with jobs in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	// New work is rejected while draining.
	if _, err := rt.Go(context.Background(), func(context.Context, *WorkerPool) error { return nil }); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Go during drain: err = %v, want ErrRuntimeClosed", err)
	}
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if finished.Load() != jobs {
		t.Fatalf("Shutdown returned with %d of %d jobs finished", finished.Load(), jobs)
	}
	for j, w := range waits {
		if err := w(); err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}

	// An expired shutdown context on a busy runtime returns promptly.
	rt2 := NewRuntime(RuntimeOptions{Workers: 2})
	hold := make(chan struct{})
	w2, err := rt2.Go(context.Background(), func(context.Context, *WorkerPool) error {
		<-hold
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := rt2.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown(expired): err = %v, want DeadlineExceeded", err)
	}
	close(hold)
	if err := w2(); err != nil {
		t.Fatalf("held job after expired shutdown: %v", err)
	}
}

// TestRuntimeMaxJobsAdmission checks the MaxJobs bound: admission blocks
// and respects the waiter's context.
func TestRuntimeMaxJobsAdmission(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 2, MaxJobs: 1})
	defer rt.Shutdown(context.Background())
	hold := make(chan struct{})
	wait, err := rt.Go(context.Background(), func(context.Context, *WorkerPool) error {
		<-hold
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := rt.Go(ctx, func(context.Context, *WorkerPool) error { return nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("admission over MaxJobs: err = %v, want DeadlineExceeded", err)
	}
	close(hold)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}
