package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/bloomier"
	"repro/internal/faultinject"
	"repro/internal/iblt"
	"repro/internal/mphf"
	"repro/internal/parallel"
)

// ErrServerClosed is returned by Serve and Shutdown once a Shutdown has
// begun.
var ErrServerClosed = errors.New("server: closed")

// Options configure New. The zero value is serviceable: GOMAXPROCS
// workers, MaxJobs = 2×workers, the zero Policy, DefaultMaxFrame, and a
// 25ms retry-after hint.
type Options struct {
	// Workers sizes the server's worker pool; <= 0 selects GOMAXPROCS.
	Workers int

	// MaxJobs bounds concurrently running requests. The server never
	// queues past it: request N+1 is shed with an OVERLOADED reply.
	// <= 0 selects 2× the worker count.
	MaxJobs int

	// Policy is the failure policy every request runs under — the
	// server's Runtime policy (build and reconcile retries, default
	// job timeout).
	Policy repro.Policy

	// MaxFrame caps the frame size the server will read or build;
	// <= 0 selects DefaultMaxFrame. Oversized frames are rejected from
	// the 4-byte length prefix, before any payload allocation.
	MaxFrame int

	// RetryAfter is the hint carried in OVERLOADED replies; <= 0
	// selects 25ms.
	RetryAfter time.Duration
}

// Stats is a snapshot of the server's wire-level counters plus the
// underlying Runtime's. The steady-state invariant is
// RequestsAccepted == RepliesSent once the server quiesces: every
// accepted request — including shed and shutdown-rejected ones — gets
// exactly one reply.
type Stats struct {
	// ConnsAccepted counts connections the accept loop admitted.
	ConnsAccepted int64
	// ConnPanics counts connections killed by a panic on their read
	// goroutine. The server survives each one.
	ConnPanics int64
	// RequestsAccepted counts fully read, well-framed request frames.
	RequestsAccepted int64
	// RequestsShed counts requests turned away at admission with an
	// OVERLOADED reply (also counted in RepliesSent).
	RequestsShed int64
	// RepliesSent counts reply frames the server committed to writing
	// (a torn or failed write still counts — the reply was produced).
	RepliesSent int64
	// FramesRejected counts protocol violations: bad preface, bad
	// length, unknown frame type, zero request ID. Each one kills its
	// connection.
	FramesRejected int64
	// GoAwaysSent counts GOAWAY frames written during drain.
	GoAwaysSent int64

	// Runtime is the owned Runtime's snapshot; Runtime.JobsShed equals
	// RequestsShed minus sheds answered before admission was attempted.
	Runtime repro.RuntimeStats
}

// Server is the wire front-end: it owns a Runtime (workers, admission,
// policy) and a StaticTable, and serves the protocol documented in this
// package's comment. Create with New, start with Serve, stop with
// Shutdown.
type Server struct {
	opts  Options
	rt    *repro.Runtime
	table *repro.StaticTable

	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}

	draining atomic.Bool
	connWG   sync.WaitGroup

	connsAccepted    atomic.Int64
	connPanics       atomic.Int64
	requestsAccepted atomic.Int64
	requestsShed     atomic.Int64
	repliesSent      atomic.Int64
	framesRejected   atomic.Int64
	goAwaysSent      atomic.Int64
}

// New builds a Server with its own Runtime and an empty StaticTable.
// Nothing listens until Serve.
func New(opts Options) *Server {
	if opts.MaxJobs <= 0 {
		w := opts.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		opts.MaxJobs = 2 * w
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = DefaultMaxFrame
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = 25 * time.Millisecond
	}
	return &Server{
		opts:  opts,
		rt:    repro.NewRuntime(repro.RuntimeOptions{Workers: opts.Workers, MaxJobs: opts.MaxJobs, Policy: opts.Policy}),
		table: repro.NewStaticTable(),
		conns: make(map[*conn]struct{}),
	}
}

// Runtime returns the server's owned Runtime (for stats and tests).
func (s *Server) Runtime() *repro.Runtime { return s.rt }

// Table returns the server's StaticTable — the state behind the Lookup
// and SwapImage ops. Embedders may pre-install a generation before
// Serve.
func (s *Server) Table() *repro.StaticTable { return s.table }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		ConnsAccepted:    s.connsAccepted.Load(),
		ConnPanics:       s.connPanics.Load(),
		RequestsAccepted: s.requestsAccepted.Load(),
		RequestsShed:     s.requestsShed.Load(),
		RepliesSent:      s.repliesSent.Load(),
		FramesRejected:   s.framesRejected.Load(),
		GoAwaysSent:      s.goAwaysSent.Load(),
		Runtime:          s.rt.Stats(),
	}
}

// Serve accepts connections on ln until Shutdown closes it (then
// returns nil) or Accept fails (then returns the error). The accept
// loop never blocks on request admission — shedding happens per
// request, after the frame is read, on the connection's goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.draining.Load() {
				return nil
			}
			return err
		}
		s.connsAccepted.Add(1)
		if faultinject.Enabled {
			// Failpoint: an error drops the connection at the door; a
			// stalling callback delays the accept loop itself.
			if ferr := faultinject.FireErr(faultinject.ServerAccept, nc.RemoteAddr().String()); ferr != nil {
				nc.Close()
				continue
			}
		}
		c := &conn{s: s, nc: nc}
		s.mu.Lock()
		if s.draining.Load() {
			// Raced with Shutdown: refuse politely instead of serving on
			// a connection drain will never see. goAway (not a bare
			// writeFrame) so the refusal carries the same write deadline
			// — a stuck peer cannot stall the accept loop's final
			// iterations — and counts in GoAwaysSent like every other
			// drain notice.
			s.mu.Unlock()
			c.goAway()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		//peelvet:allow nospawn -- connection goroutine: panic-isolated by conn.run's recover (ConnPanics), registered in s.conns, and joined by Shutdown via connWG
		go c.run()
	}
}

// Shutdown drains the server: the listener closes (Serve returns nil),
// every open connection gets a GOAWAY frame, in-flight requests finish
// through the Runtime's drain — their replies flush before the
// connections close, because replies are written inside the jobs — and
// new requests arriving meanwhile are answered SHUTTING_DOWN. If ctx
// expires first, Shutdown force-closes the connections and returns
// ctx.Err(); the Runtime keeps draining in the background. A second
// Shutdown returns ErrServerClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return ErrServerClosed
	}
	s.mu.Lock()
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// goAway waits for the connection's write mutex (an in-flight reply
	// finishes flushing first), so each notice goes out on its own
	// goroutine: one connection mid-write to a slow client must not
	// delay the others' notices or the Runtime drain below. The
	// goroutines are joined before Shutdown returns; a stuck one is
	// unstuck by the force-close below at the latest.
	var goAways sync.WaitGroup
	for _, c := range conns {
		goAways.Add(1)
		//peelvet:allow nospawn -- drain notifier: joined by goAways.Wait below, bounded by goAway's own write deadline plus the force-close of its connection
		go func() {
			defer goAways.Done()
			c.goAway()
		}()
	}

	err := s.rt.Shutdown(ctx) // nil on clean drain, ctx.Err() on expiry
	if errors.Is(err, repro.ErrRuntimeClosed) {
		err = nil // someone shut the runtime down for us; the drain is done
	}
	s.mu.Lock()
	conns = conns[:0]
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
	goAways.Wait()
	s.connWG.Wait()
	return err
}

// conn is one accepted connection: a read loop on its own goroutine and
// a mutex-serialized frame writer shared by every in-flight handler.
type conn struct {
	s  *Server
	nc net.Conn

	// ctx is the connection's lifetime context: every handler context
	// derives from it, and run cancels it on exit, so work admitted for
	// a connection that has since died is reclaimed (CodeCanceled)
	// instead of running to completion holding a MaxJobs slot. Set
	// before run's read loop starts; nil only on the accept-race
	// refusal path, which never serves a request.
	ctx    context.Context
	cancel context.CancelFunc

	writeMu sync.Mutex
	wbuf    []byte
	dead    bool // a torn write poisoned the stream; no further writes
}

// run is the connection's read loop. A panic here kills only this
// connection: the recover below counts it and closes the socket, and
// every other connection — and the server — keeps going.
func (c *conn) run() {
	c.ctx, c.cancel = context.WithCancel(context.Background())
	defer c.s.connWG.Done()
	defer func() {
		if v := recover(); v != nil {
			c.s.connPanics.Add(1)
		}
		c.cancel() // reclaim handlers still running for this dead conn
		c.nc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	}()

	var preface [len(Preface)]byte
	if _, err := io.ReadFull(c.nc, preface[:]); err != nil || string(preface[:]) != Preface {
		if err == nil {
			c.s.framesRejected.Add(1)
		}
		return
	}

	for {
		typ, id, payload, err := readFrame(c.nc, c.s.opts.MaxFrame)
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				c.s.framesRejected.Add(1)
			}
			return
		}
		if !opValid(typ) || id == 0 {
			c.s.framesRejected.Add(1)
			return
		}
		if faultinject.Enabled {
			// Failpoint: a stalling callback holds the read loop here —
			// a stuck client from the server's point of view.
			faultinject.Fire(faultinject.ServerConnStall, len(payload))
		}
		c.s.requestsAccepted.Add(1)
		c.serveRequest(typ, id, payload)
	}
}

// serveRequest admits one request and arranges its single reply. It
// runs on the read goroutine and never blocks on admission: saturation
// sheds, shutdown refuses, both with an inline typed reply.
func (c *conn) serveRequest(typ byte, id uint64, payload []byte) {
	if len(payload) < 4 {
		c.reply(id, TypeError, encodeErrorPayload(CodeBadRequest, 0, "payload shorter than deadline field"))
		return
	}
	dl := time.Duration(uint32(payload[0])|uint32(payload[1])<<8|uint32(payload[2])<<16|uint32(payload[3])<<24) * time.Millisecond

	// Derive from the connection's context, not Background: when the
	// connection dies (or Shutdown force-closes it), run's cancel
	// propagates here and in-flight work for the vanished client is
	// abandoned at the next barrier instead of holding a MaxJobs slot.
	ctx := c.ctx
	cancel := context.CancelFunc(func() {})
	if dl > 0 {
		ctx, cancel = context.WithTimeout(ctx, dl)
	}

	_, err := c.s.rt.TryGo(ctx, func(ctx context.Context, pool *repro.WorkerPool) error {
		defer cancel()
		rtyp, rpayload, herr := c.s.dispatch(ctx, pool, typ, payload)
		if werr := c.reply(id, rtyp, rpayload); werr != nil && herr == nil {
			herr = werr
		}
		return herr // a *PanicError here makes execute count JobsPanicked
	})
	if err == nil {
		return
	}
	cancel()
	switch {
	case errors.Is(err, repro.ErrOverloaded):
		c.s.requestsShed.Add(1)
		c.reply(id, TypeError, encodeErrorPayload(CodeOverloaded, c.s.opts.RetryAfter, "runtime saturated, request shed"))
	case errors.Is(err, repro.ErrRuntimeClosed):
		c.reply(id, TypeError, encodeErrorPayload(CodeShuttingDown, 0, "server draining"))
	case errors.Is(err, context.DeadlineExceeded):
		c.reply(id, TypeError, encodeErrorPayload(CodeDeadlineExceeded, 0, "deadline expired before admission"))
	default:
		c.reply(id, TypeError, encodeErrorPayload(CodeCanceled, 0, err.Error()))
	}
}

// dispatch parses and executes one request on the calling (job)
// goroutine. A panicking handler is recovered here so the client still
// gets a reply — a typed INTERNAL error — while the panic is re-reported
// upward as a *parallel.PanicError for the Runtime's JobsPanicked
// accounting. The connection survives.
func (s *Server) dispatch(ctx context.Context, pool *repro.WorkerPool, typ byte, payload []byte) (rtyp byte, rpayload []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = parallel.NewPanicError(v)
			rtyp, rpayload = TypeError, encodeErrorPayload(CodeInternal, 0, fmt.Sprintf("handler panic: %v", v))
		}
	}()
	if faultinject.Enabled {
		// Failpoint: a panicking callback exercises the recover above.
		faultinject.Fire(faultinject.ServerHandlerPanic, typ)
	}

	switch typ {
	case OpReconcile:
		q, perr := parseReconcileReq(payload)
		if perr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, perr.Error()), nil
		}
		onlyL, onlyR, meta, rerr := s.rt.Policy().Reconcile(ctx, q.local, q.remote, q.seed, q.headroom, pool)
		if rerr != nil {
			code, msg := classify(rerr)
			return TypeError, encodeErrorPayload(code, 0, msg), nil
		}
		res := &ReconcileResult{OnlyLocal: onlyL, OnlyRemote: onlyR, Attempts: meta.Attempts, WireBytes: meta.WireBytes, Headroom: meta.FinalHeadroom}
		return TypeResult, res.encode(), nil

	case OpDecode:
		q, perr := parseDecodeReq(payload)
		if perr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, perr.Error()), nil
		}
		var t iblt.Table
		if uerr := t.UnmarshalBinary(q.sketch); uerr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, uerr.Error()), nil
		}
		res, derr := t.DecodeParallelFrontierCtx(ctx, pool)
		if derr != nil {
			code, msg := classify(derr)
			return TypeError, encodeErrorPayload(code, 0, msg), nil
		}
		out := &DecodeResult{Added: res.Added, Removed: res.Removed, Complete: res.Complete}
		return TypeResult, out.encode(), nil

	case OpBuildMPHF:
		q, perr := parseBuildReq(payload)
		if perr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, perr.Error()), nil
		}
		f, berr := s.rt.Policy().BuildMPHF(ctx, q.keys, q.seed, pool)
		if berr != nil {
			code, msg := classify(berr)
			return TypeError, encodeErrorPayload(code, 0, msg), nil
		}
		return TypeResult, appendBytes(nil, f.Bytes()), nil

	case OpLookup:
		q, perr := parseLookupReq(payload)
		if perr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, perr.Error()), nil
		}
		out := make([]uint64, len(q.keys))
		gen, ok := s.table.LookupBatch(q.keys, out)
		if !ok {
			return TypeError, encodeErrorPayload(CodeUnavailable, 0, "no generation installed"), nil
		}
		res := &LookupResult{Generation: gen, Values: out}
		return TypeResult, res.encode(), nil

	case OpSwapImage:
		q, perr := parseSwapReq(payload)
		if perr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, perr.Error()), nil
		}
		// The image lands at an arbitrary offset inside the frame, but
		// the zero-copy loader requires an 8-byte-aligned base;
		// AlignImage copies only when needed. The (possibly copied)
		// buffer is private to this frame, so the table owns it for the
		// generation's lifetime.
		gen, serr := s.table.SwapImage(repro.AlignImage(q.image), nil)
		if serr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, serr.Error()), nil
		}
		out := make([]byte, 0, 8)
		return TypeResult, appendUint64(out, gen), nil

	case OpEstimate:
		q, perr := parseEstimateReq(payload)
		if perr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, perr.Error()), nil
		}
		var le, re iblt.StrataEstimator
		if uerr := le.UnmarshalBinary(q.local); uerr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, uerr.Error()), nil
		}
		if uerr := re.UnmarshalBinary(q.remote); uerr != nil {
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, uerr.Error()), nil
		}
		if le.Seed() != re.Seed() {
			// Checked before Subtract, which panics on mismatched seeds —
			// a hostile pair must be a typed reply, not a handler panic.
			return TypeError, encodeErrorPayload(CodeBadRequest, 0, "estimator seeds differ"), nil
		}
		le.Subtract(&re)
		out := make([]byte, 0, 8)
		return TypeResult, appendUint64(out, uint64(le.Estimate())), nil
	}
	// Unreachable: run() validated the op before dispatch.
	return TypeError, encodeErrorPayload(CodeBadRequest, 0, "unknown op"), nil
}

// classify maps a handler error to its wire code.
func classify(err error) (Code, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadlineExceeded, err.Error()
	case parallel.IsCancellation(err):
		return CodeCanceled, err.Error()
	case errors.Is(err, iblt.ErrDecodeIncomplete),
		errors.Is(err, mphf.ErrBuildFailed),
		errors.Is(err, bloomier.ErrBuildFailed):
		return CodeFailed, err.Error()
	case errors.Is(err, mphf.ErrDuplicateKeys),
		errors.Is(err, bloomier.ErrDuplicateKeys):
		return CodeBadRequest, err.Error()
	default:
		return CodeInternal, err.Error()
	}
}

// reply writes one reply frame, counting it as sent before the write is
// attempted: RepliesSent counts replies the server produced, whether or
// not the network cooperated.
func (c *conn) reply(id uint64, typ byte, payload []byte) error {
	c.s.repliesSent.Add(1)
	return c.writeFrame(typ, id, payload)
}

// goAway sends the drain notice. The write mutex is acquired before the
// deadline is set: SetWriteDeadline applies to writes already in flight,
// so setting it first could tear a reply mid-flush to a slow client —
// violating the drain guarantee. Once the stream is ours, a short
// deadline bounds the GOAWAY write itself (a stuck peer cannot hold it),
// and it is cleared again before the mutex is released. Callers that
// must not block behind an in-flight reply run goAway on its own
// goroutine (Shutdown does).
func (c *conn) goAway() {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(time.Second))
	if c.writeFrameLocked(TypeGoAway, 0, nil) == nil {
		c.s.goAwaysSent.Add(1)
	}
	c.nc.SetWriteDeadline(time.Time{})
}

// writeFrame builds the frame contiguously and hands the kernel a
// single Write, under the connection's write mutex — concurrent
// handlers never interleave frame bytes.
func (c *conn) writeFrame(typ byte, id uint64, payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.writeFrameLocked(typ, id, payload)
}

// writeFrameLocked is writeFrame with c.writeMu already held.
func (c *conn) writeFrameLocked(typ byte, id uint64, payload []byte) error {
	if c.dead {
		return net.ErrClosed
	}
	c.wbuf = appendFrame(c.wbuf[:0], typ, id, payload)
	if faultinject.Enabled {
		// Failpoint: an error tears the frame — only a prefix reaches
		// the wire, then the connection dies, exactly like a crash
		// mid-send. The stream is poisoned; no further writes.
		if ferr := faultinject.FireErr(faultinject.ServerFrameTorn, c.wbuf); ferr != nil {
			c.dead = true
			if len(c.wbuf) > 1 {
				c.nc.Write(c.wbuf[:len(c.wbuf)/2])
			}
			c.nc.Close()
			return ferr
		}
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		c.dead = true
		return err
	}
	return nil
}

func appendUint64(buf []byte, v uint64) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
