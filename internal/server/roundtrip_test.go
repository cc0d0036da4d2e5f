package server_test

// Black-box round trips: every op driven end-to-end through the
// companion client package against a live server, plus the shedding and
// retry behavior the client is built around.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro"
	"repro/internal/iblt"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/server/client"
)

func startServer(t *testing.T, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		st := srv.Stats()
		if st.RequestsAccepted != st.RepliesSent {
			t.Errorf("reply invariant: accepted %d != replies %d", st.RequestsAccepted, st.RepliesSent)
		}
	})
	return srv, ln.Addr().String()
}

func keysOf(n int, seed uint64) []uint64 {
	gen := rng.New(seed)
	keys := make([]uint64, n)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = gen.Uint64()
		}
	}
	return keys
}

func TestClientRoundTrips(t *testing.T) {
	srv, addr := startServer(t, server.Options{Workers: 2, MaxJobs: 4})
	cl := client.Dial(addr, client.Options{})
	defer cl.Close()
	ctx := context.Background()

	t.Run("reconcile", func(t *testing.T) {
		common := keysOf(4000, 1)
		local := append(append([]uint64(nil), common...), keysOf(35, 2)...)
		remote := append(append([]uint64(nil), common...), keysOf(35, 3)...)
		res, err := cl.Reconcile(ctx, local, remote, 7, 1.5)
		if err != nil {
			t.Fatalf("Reconcile: %v", err)
		}
		if len(res.OnlyLocal) != 35 || len(res.OnlyRemote) != 35 {
			t.Fatalf("difference sides %d/%d, want 35/35", len(res.OnlyLocal), len(res.OnlyRemote))
		}
		if res.Attempts != 1 || res.WireBytes <= 0 || res.Headroom != 1.5 {
			t.Fatalf("meta = %+v, want attempts 1, positive wire bytes, headroom 1.5", res)
		}
	})

	t.Run("decode", func(t *testing.T) {
		keys := keysOf(3000, 4)
		tbl := iblt.New(5000, 3, 99)
		tbl.InsertAllWithPool(keys, parallel.Default())
		wire, err := tbl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Decode(ctx, wire)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !res.Complete || len(res.Added) != len(keys) || len(res.Removed) != 0 {
			t.Fatalf("decode complete=%v added=%d removed=%d, want complete with %d added",
				res.Complete, len(res.Added), len(res.Removed), len(keys))
		}
	})

	t.Run("corrupt sketch is a typed reply", func(t *testing.T) {
		if _, err := cl.Decode(ctx, []byte("definitely not an iblt")); !errors.Is(err, server.ErrBadRequest) {
			t.Fatalf("Decode(garbage): %v, want ErrBadRequest", err)
		}
	})

	t.Run("lookup before any generation", func(t *testing.T) {
		_, err := cl.Lookup(ctx, []uint64{1, 2, 3})
		var se *server.Error
		if !errors.As(err, &se) || se.Code != server.CodeUnavailable {
			t.Fatalf("Lookup on empty table: %v, want UNAVAILABLE", err)
		}
	})

	var image []byte
	t.Run("build mphf", func(t *testing.T) {
		keys := keysOf(2000, 5)
		img, err := cl.BuildMPHF(ctx, keys, 11)
		if err != nil {
			t.Fatalf("BuildMPHF: %v", err)
		}
		f, err := repro.OpenMPHF(img)
		if err != nil {
			t.Fatalf("returned image does not open: %v", err)
		}
		seen := make(map[uint64]bool, len(keys))
		for _, k := range keys {
			idx := f.LookupValue(k)
			if idx >= uint64(len(keys)) || seen[idx] {
				t.Fatalf("image is not a minimal perfect hash: key %#x -> %d", k, idx)
			}
			seen[idx] = true
		}
		image = img
	})

	t.Run("duplicate mphf keys are BAD_REQUEST", func(t *testing.T) {
		keys := keysOf(2000, 6)
		keys[1500] = keys[3]
		if _, err := cl.BuildMPHF(ctx, keys, 11); !errors.Is(err, server.ErrBadRequest) {
			t.Fatalf("BuildMPHF(duplicate keys): %v, want ErrBadRequest", err)
		}
	})

	t.Run("swap image rejects corruption", func(t *testing.T) {
		bad := append([]byte(nil), image...)
		bad[len(bad)/2] ^= 0xff
		if _, err := cl.SwapImage(ctx, bad); !errors.Is(err, server.ErrBadRequest) {
			t.Fatalf("SwapImage(corrupt): %v, want ErrBadRequest", err)
		}
		if n, last := srv.Table().SwapRejections(); n != 1 || last == nil {
			t.Fatalf("SwapRejections = %d/%v, want 1 with an error", n, last)
		}
		if gen := srv.Table().Generation(); gen != 0 {
			t.Fatalf("generation %d after rejected swap, want 0", gen)
		}
	})

	t.Run("swap and lookup", func(t *testing.T) {
		gen, err := cl.SwapImage(ctx, image)
		if err != nil {
			t.Fatalf("SwapImage: %v", err)
		}
		if gen != 1 {
			t.Fatalf("generation = %d, want 1", gen)
		}
		keys := keysOf(2000, 5)
		res, err := cl.Lookup(ctx, keys[:16])
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		if res.Generation != 1 || len(res.Values) != 16 {
			t.Fatalf("lookup gen=%d values=%d, want gen 1 with 16 values", res.Generation, len(res.Values))
		}
		f, _ := repro.OpenMPHF(image)
		for i, k := range keys[:16] {
			if res.Values[i] != f.LookupValue(k) {
				t.Fatalf("value[%d] = %d, local image says %d", i, res.Values[i], f.LookupValue(k))
			}
		}
	})

	t.Run("estimate", func(t *testing.T) {
		le := iblt.NewStrataEstimator(77)
		le.InsertAllWithPool(keysOf(5000, 8), parallel.Default())
		re := iblt.NewStrataEstimator(77)
		re.InsertAllWithPool(keysOf(5000, 8)[:4800], parallel.Default()) // 200 missing
		lw, _ := le.MarshalBinary()
		rw, _ := re.MarshalBinary()
		est, err := cl.Estimate(ctx, lw, rw)
		if err != nil {
			t.Fatalf("Estimate: %v", err)
		}
		if est < 50 || est > 800 {
			t.Fatalf("estimate %d wildly off for a 200-key difference", est)
		}
		// Mismatched seeds must be a typed reply, not a handler panic.
		other := iblt.NewStrataEstimator(78)
		ow, _ := other.MarshalBinary()
		if _, err := cl.Estimate(ctx, lw, ow); !errors.Is(err, server.ErrBadRequest) {
			t.Fatalf("Estimate(mismatched seeds): %v, want ErrBadRequest", err)
		}
	})
}

// TestShedAndClientBackoff: with the single job slot held, a
// no-retries client sees the typed OVERLOADED reply (with the server's
// retry-after hint), while a retrying client waits out the backoff and
// succeeds once the slot frees — the full shed-and-recover loop.
func TestShedAndClientBackoff(t *testing.T) {
	srv, addr := startServer(t, server.Options{Workers: 2, MaxJobs: 1, RetryAfter: 5 * time.Millisecond})
	ctx := context.Background()

	release := make(chan struct{})
	started := make(chan struct{})
	wait, err := srv.Runtime().Go(ctx, func(ctx context.Context, _ *repro.WorkerPool) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatalf("occupy: %v", err)
	}
	<-started

	local, remote := keysOf(500, 1), keysOf(500, 2)

	noRetry := client.Dial(addr, client.Options{MaxRetries: -1})
	defer noRetry.Close()
	_, rerr := noRetry.Reconcile(ctx, local, remote, 3, 1.5)
	var se *server.Error
	if !errors.As(rerr, &se) || se.Code != server.CodeOverloaded {
		t.Fatalf("saturated call: %v, want OVERLOADED", rerr)
	}
	if !errors.Is(rerr, server.ErrOverloaded) {
		t.Fatal("typed reply does not match ErrOverloaded sentinel")
	}
	if se.RetryAfter != 5*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want the server's 5ms hint", se.RetryAfter)
	}
	if st := srv.Stats(); st.RequestsShed < 1 || st.Runtime.JobsShed < 1 {
		t.Fatalf("shed not counted: RequestsShed=%d JobsShed=%d", st.RequestsShed, st.Runtime.JobsShed)
	}

	// A retrying client outlives the saturation window.
	retrying := client.Dial(addr, client.Options{MaxRetries: 8, BaseBackoff: 5 * time.Millisecond})
	defer retrying.Close()
	freed := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
		close(freed)
	}()
	res, err := retrying.Reconcile(ctx, local, remote, 3, 1.5)
	if err != nil {
		t.Fatalf("retrying client: %v", err)
	}
	if len(res.OnlyLocal) != 500 || len(res.OnlyRemote) != 500 {
		t.Fatalf("difference sides %d/%d, want 500/500", len(res.OnlyLocal), len(res.OnlyRemote))
	}
	<-freed
	if err := wait(); err != nil {
		t.Fatalf("held job: %v", err)
	}
}

// TestDeadlinePropagation: the client's context deadline rides the wire
// and bounds the server-side work; a request that cannot finish in time
// fails with a deadline error on whichever side notices first.
func TestDeadlinePropagation(t *testing.T) {
	_, addr := startServer(t, server.Options{Workers: 2})
	cl := client.Dial(addr, client.Options{MaxRetries: -1})
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := cl.Reconcile(ctx, keysOf(200_000, 1), keysOf(200_000, 2), 9, 1.5)
	var se *server.Error
	switch {
	case errors.Is(err, context.DeadlineExceeded): // client noticed first
	case errors.As(err, &se) && se.Code == server.CodeDeadlineExceeded: // server replied first
	default:
		t.Fatalf("heavy call under 30ms deadline: %v, want a deadline failure", err)
	}
}
