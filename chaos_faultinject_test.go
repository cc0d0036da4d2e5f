//go:build faultinject

package repro

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bloomier"
	"repro/internal/faultinject"
	"repro/internal/layout"
)

// Chaos scenario: a rebuild-while-serve loop under an injected worker
// panic. The build job must fail with ErrJobPanicked, lookups against
// the serving table must stay uninterrupted and correct throughout, and
// after disarming the same Runtime must rebuild and swap cleanly.
// Run with -race -tags=faultinject.
func TestChaosRebuildWhileServeSurvivesWorkerPanic(t *testing.T) {
	defer faultinject.Reset()
	rt := NewRuntime(RuntimeOptions{Workers: 4, MaxJobs: 4})
	defer rt.Shutdown(context.Background())
	ctx := context.Background()
	tbl := NewStaticTable()

	keys := testRuntimeKeys(8000, 21)
	values := make([]uint64, len(keys))
	for i, k := range keys {
		values[i] = k ^ 0xabcd
	}
	sm, err := rt.BuildStaticMap(ctx, keys, values, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapImage(ctx, tbl, sm.Bytes(), nil); err != nil {
		t.Fatal(err)
	}

	// Serve continuously while the chaos plays out.
	var stop atomic.Bool
	var lookupErrs atomic.Int64
	var served sync.WaitGroup
	for g := 0; g < 2; g++ {
		served.Add(1)
		go func(g int) {
			defer served.Done()
			for i := 0; !stop.Load(); i++ {
				k := keys[(i*31+g)%len(keys)]
				if v, ok := tbl.Lookup(k); !ok || v != k^0xabcd {
					lookupErrs.Add(1)
					return
				}
			}
		}(g)
	}

	// Poison a chunk deep inside the rebuild's peel.
	faultinject.Arm(faultinject.PoolChunk, faultinject.PanicAt(5, "chaos: worker dies mid-peel"))
	_, err = rt.BuildStaticMap(ctx, keys, values, 2)
	if !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("poisoned rebuild = %v, want ErrJobPanicked", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value() != "chaos: worker dies mid-peel" {
		t.Fatalf("panic payload lost: %v", err)
	}
	faultinject.Disarm(faultinject.PoolChunk)

	// Same Runtime, healthy rebuild and swap.
	sm2, err := rt.BuildStaticMap(ctx, keys, values, 3)
	if err != nil {
		t.Fatalf("rebuild after chaos: %v", err)
	}
	gen, err := rt.SwapImage(ctx, tbl, sm2.Bytes(), nil)
	if err != nil || gen != 2 {
		t.Fatalf("swap after chaos = gen %d, %v", gen, err)
	}

	stop.Store(true)
	served.Wait()
	if n := lookupErrs.Load(); n != 0 {
		t.Errorf("%d serving lookups failed during chaos", n)
	}
	if got := rt.Stats().JobsPanicked; got != 1 {
		t.Errorf("JobsPanicked = %d, want 1", got)
	}
}

// Chaos scenario: the swap path hands the table a corrupted image. The
// quarantine must reject it, count it, and keep the previous generation
// serving.
func TestChaosSwapCorruptionIsQuarantined(t *testing.T) {
	defer faultinject.Reset()
	rt := NewRuntime(RuntimeOptions{Workers: 2})
	defer rt.Shutdown(context.Background())
	ctx := context.Background()
	tbl := NewStaticTable()

	keys := testRuntimeKeys(4000, 5)
	f, err := rt.BuildMPHF(ctx, keys, 9)
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), f.Bytes()...)
	if _, err := rt.SwapImage(ctx, tbl, img, nil); err != nil {
		t.Fatal(err)
	}

	// The failpoint corrupts the candidate bytes in flight — exactly a
	// torn read of the image file.
	faultinject.Arm(faultinject.ServingSwap, func(hit int64, arg any) error {
		data := arg.([]byte)
		data[len(data)/3] ^= 0x80
		return nil
	})
	bad := append([]byte(nil), f.Bytes()...)
	if _, err := rt.SwapImage(ctx, tbl, bad, nil); !errors.Is(err, layout.ErrBadImage) {
		t.Fatalf("corrupted swap = %v, want ErrBadImage", err)
	}
	faultinject.Disarm(faultinject.ServingSwap)

	count, last := tbl.SwapRejections()
	if count != 1 || last == nil {
		t.Errorf("SwapRejections = (%d, %v), want (1, non-nil)", count, last)
	}
	if tbl.Generation() != 1 {
		t.Errorf("generation = %d, want 1 (previous image must keep serving)", tbl.Generation())
	}
	for _, k := range keys[:64] {
		if _, ok := tbl.Lookup(k); !ok {
			t.Fatal("previous generation stopped serving after a quarantined swap")
		}
	}
}

// Chaos scenario: reconciliation decode failures drive the policy's
// headroom escalation until the diff decodes.
func TestChaosReconcileHeadroomEscalation(t *testing.T) {
	defer faultinject.Reset()
	rt := NewRuntime(RuntimeOptions{
		Workers: 2,
		Policy:  Policy{ReconcileRetries: 3, HeadroomStep: 0.5},
	})
	defer rt.Shutdown(context.Background())
	ctx := context.Background()

	keys := testRuntimeKeys(2100, 13)
	local, remote := keys[:2000], keys[100:2100]

	faultinject.Arm(faultinject.ReconcileDecode, faultinject.FailFirst(2, errors.New("forced incomplete")))
	defer faultinject.Disarm(faultinject.ReconcileDecode)

	onlyLocal, onlyRemote, wireBytes, err := rt.Reconcile(ctx, local, remote, 7, 2.0)
	if err != nil {
		t.Fatalf("Reconcile under injected decode failures: %v", err)
	}
	if len(onlyLocal) != 100 || len(onlyRemote) != 100 {
		t.Errorf("diff = (%d, %d), want (100, 100)", len(onlyLocal), len(onlyRemote))
	}
	if got := faultinject.Hits(faultinject.ReconcileDecode); got != 3 {
		t.Errorf("decode attempts = %d, want 3 (two forced failures, one success)", got)
	}
	// Retries accumulate wire cost; the total must cover all attempts.
	if wireBytes <= 0 {
		t.Errorf("wireBytes = %d across retried attempts", wireBytes)
	}
}

// Chaos scenario: every attempt of the first whole MPHF build is forced
// to fail, exhausting its internal attempt budget; the policy's single
// retry with an escalated seed succeeds on its first attempt.
func TestChaosBuildRetryEscalatesSeed(t *testing.T) {
	defer faultinject.Reset()
	rt := NewRuntime(RuntimeOptions{Workers: 2, Policy: Policy{BuildRetries: 1}})
	defer rt.Shutdown(context.Background())
	ctx := context.Background()

	keys := testRuntimeKeys(3000, 17)
	faultinject.Arm(faultinject.MPHFAttempt, faultinject.FailFirst(10, errors.New("forced 2-core")))
	defer faultinject.Disarm(faultinject.MPHFAttempt)

	f, err := rt.BuildMPHF(ctx, keys, 99)
	if err != nil {
		t.Fatalf("BuildMPHF with retry policy: %v", err)
	}
	if got := faultinject.Hits(faultinject.MPHFAttempt); got != 11 {
		t.Errorf("build attempts = %d, want 11 (10 forced failures + 1 success)", got)
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		i := f.Lookup(k)
		if i < 0 || i >= len(keys) || seen[i] {
			t.Fatal("escalated-seed build is not a perfect function")
		}
		seen[i] = true
	}

	// Without the policy the same injection fails the build outright.
	faultinject.Arm(faultinject.MPHFAttempt, faultinject.FailFirst(10, errors.New("forced 2-core")))
	if _, err := rt.WithPolicy(Policy{}).BuildMPHF(ctx, keys, 99); !errors.Is(err, ErrMPHFBuildFailed) {
		t.Fatalf("no-retry build = %v, want ErrMPHFBuildFailed", err)
	}
}

// Chaos scenario: a staticmap build retry driven by the bloomier
// failpoint, through the same policy knob as MPHF.
func TestChaosStaticMapBuildRetry(t *testing.T) {
	defer faultinject.Reset()
	rt := NewRuntime(RuntimeOptions{Workers: 2, Policy: Policy{BuildRetries: 2}})
	defer rt.Shutdown(context.Background())
	ctx := context.Background()

	keys := testRuntimeKeys(2000, 29)
	values := make([]uint64, len(keys))
	for i := range keys {
		values[i] = uint64(i)
	}
	faultinject.Arm(faultinject.BloomierAttempt, faultinject.FailFirst(10, errors.New("forced failure")))
	defer faultinject.Disarm(faultinject.BloomierAttempt)

	sm, err := rt.BuildStaticMap(ctx, keys, values, 3)
	if err != nil {
		t.Fatalf("BuildStaticMap with retry policy: %v", err)
	}
	for i, k := range keys[:128] {
		if v := sm.Lookup(k); v != uint64(i) {
			t.Fatal("retried static map lookup wrong")
		}
	}
}

// Chaos scenario: duplicate static-map keys stop the build after its
// first attempt, and the retry policy does not re-run it — the
// failpoint counts exactly one attempt where a probabilistic failure
// would have run 10 × (1 + BuildRetries).
func TestChaosStaticMapDuplicateKeysNotRetried(t *testing.T) {
	defer faultinject.Reset()
	rt := NewRuntime(RuntimeOptions{Workers: 2, Policy: Policy{BuildRetries: 2}})
	defer rt.Shutdown(context.Background())

	keys := testRuntimeKeys(2000, 31)
	keys[1999] = keys[5]
	values := make([]uint64, len(keys))
	faultinject.Arm(faultinject.BloomierAttempt, faultinject.FailFirst(0, nil))
	defer faultinject.Disarm(faultinject.BloomierAttempt)

	if _, err := rt.BuildStaticMap(context.Background(), keys, values, 3); !errors.Is(err, bloomier.ErrDuplicateKeys) {
		t.Fatalf("BuildStaticMap(duplicate keys) = %v, want bloomier.ErrDuplicateKeys", err)
	}
	if got := faultinject.Hits(faultinject.BloomierAttempt); got != 1 {
		t.Errorf("build attempts = %d, want 1", got)
	}
}
