package cosim

import (
	"bufio"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Daemon-level failure codes (decode-level codes live in proto.go).
const (
	CodeBusy         = "busy"          // worker pool saturated; retry after RetryAfterMS
	CodeNoSession    = "no-session"    // unknown session id on this connection
	CodeSessionLimit = "session-limit" // per-connection open-session cap reached
	CodeBadModel     = "bad-model"     // open-session model name not recognized
	CodeShutdown     = "shutdown"      // daemon is draining; no new work
)

// Options tunes a Daemon. The zero value is usable.
type Options struct {
	// Workers bounds how many sessions may be advancing simulated time
	// concurrently, across all connections. Requests that need a worker
	// slot while all are taken get an explicit CodeBusy reply with a
	// retry hint instead of queueing. Default: GOMAXPROCS.
	Workers int
	// MaxSessionsPerConn caps open sessions per connection (default 16).
	MaxSessionsPerConn int
	// RetryAfterMS is the hint attached to CodeBusy replies (default 5).
	RetryAfterMS int64
	// Observer, when non-nil, is attached to every session the daemon
	// opens — engine metrics fold into its Metrics and phase spans into
	// its Tracer (a windowed tracer keeps always-on tracing bounded).
	// The obs layer is engine-goroutine-only, so set this ONLY when the
	// daemon serves a single connection (stdio mode), where all session
	// work runs on one goroutine. cmd/dozznocd enforces that.
	Observer *obs.Observer
}

func (o *Options) applyDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxSessionsPerConn <= 0 {
		o.MaxSessionsPerConn = 16
	}
	if o.RetryAfterMS <= 0 {
		o.RetryAfterMS = 5
	}
}

// session is one live engine instance plus its published stats. The
// owning connection goroutine is the only mutator of the sim.Session;
// pub is the last snapshot, guarded by the daemon mutex so the expvar
// branch can read it without touching the engine.
type session struct {
	id    string
	model string
	mesh  string
	sess  *sim.Session

	// Energy already reported through advance replies; the next advance
	// reports the delta past these.
	staticJ, dynamicJ float64

	pub Stats
}

// Daemon hosts cosim sessions and serves the JSONL protocol over any
// number of connections (TCP via Serve, stdio or test pipes via
// ServeConn). Create with NewDaemon, stop with Close.
type Daemon struct {
	opts  Options
	slots chan struct{} // worker-pool semaphore

	mu       sync.Mutex
	sessions map[string]*session // all live sessions, for the expvar branch
	conns    map[io.Closer]struct{}
	nextSess int64
	closed   bool

	wg sync.WaitGroup

	// advanceGate, when set, is called while an advance holds a worker
	// slot — tests use it to saturate the pool deterministically.
	advanceGate func(sessionID string)
}

// NewDaemon returns a daemon ready to serve connections.
func NewDaemon(opts Options) *Daemon {
	opts.applyDefaults()
	d := &Daemon{
		opts:     opts,
		slots:    make(chan struct{}, opts.Workers),
		sessions: make(map[string]*session),
		conns:    make(map[io.Closer]struct{}),
	}
	registerDaemon(d)
	return d
}

// Close drains the daemon: no new connections or sessions, all live
// connections are closed, and every remaining session is finalized
// (final catch-up, observability fold, tracer flush) before Close
// returns.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	d.mu.Lock()
	for id, s := range d.sessions {
		s.sess.Close()
		delete(d.sessions, id)
	}
	d.mu.Unlock()
	unregisterDaemon(d)
}

// Serve accepts connections on ln until the daemon is closed or the
// listener fails. Each connection gets its own handler goroutine and its
// own session namespace.
func (d *Daemon) Serve(ln net.Listener) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("cosim: daemon closed")
	}
	d.conns[ln] = struct{}{}
	d.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			delete(d.conns, ln)
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return nil
		}
		d.conns[conn] = struct{}{}
		d.wg.Add(1)
		d.mu.Unlock()
		go func() {
			defer d.wg.Done()
			d.serveConn(conn, conn)
			d.mu.Lock()
			delete(d.conns, conn)
			d.mu.Unlock()
			conn.Close()
		}()
	}
}

// ServeConn serves one already-connected byte stream (stdio, an
// in-memory pipe) until r reaches EOF or the daemon closes. It blocks;
// sessions opened on the stream are finalized when it ends. When r is
// an io.Closer (a pipe end, a net.Conn), Close unblocks it.
func (d *Daemon) ServeConn(r io.Reader, w io.Writer) error {
	rc, closable := r.(io.Closer)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("cosim: daemon closed")
	}
	if closable {
		d.conns[rc] = struct{}{}
	}
	d.wg.Add(1)
	d.mu.Unlock()
	defer func() {
		if closable {
			d.mu.Lock()
			delete(d.conns, rc)
			d.mu.Unlock()
		}
		d.wg.Done()
	}()
	return d.serveConn(r, w)
}

// conn is the per-connection state: the session namespace and the
// buffered writer. One goroutine per connection; ops run synchronously
// so replies are in request order.
type connState struct {
	d        *Daemon
	w        *bufio.Writer
	sessions map[string]*session
}

func (d *Daemon) serveConn(r io.Reader, w io.Writer) error {
	c := &connState{d: d, w: bufio.NewWriter(w), sessions: make(map[string]*session)}
	defer func() {
		for id, s := range c.sessions {
			s.sess.Close()
			d.mu.Lock()
			delete(d.sessions, id)
			d.mu.Unlock()
			delete(c.sessions, id)
		}
		c.w.Flush()
	}()
	br := bufio.NewReaderSize(r, MaxFrameBytes+2)
	for {
		line, tooLong, err := readFrame(br)
		if tooLong {
			if werr := c.reply(&Response{V: Version, ID: peekID(line), OK: false,
				Code: CodeTooLarge, Err: fmt.Sprintf("frame exceeds %d bytes", MaxFrameBytes)}); werr != nil {
				return werr
			}
			if err != nil {
				return ioDone(err)
			}
			continue
		}
		if err != nil {
			if len(line) > 0 {
				if werr := c.handle(line); werr != nil {
					return werr
				}
			}
			return ioDone(err)
		}
		if werr := c.handle(line); werr != nil {
			return werr
		}
	}
}

// readFrame reads one LF-terminated line. Lines longer than the reader's
// buffer are consumed to their newline and reported as tooLong without
// buffering them, so an oversized frame costs a bounded buffer and one
// error reply, not daemon memory.
func readFrame(br *bufio.Reader) (line []byte, tooLong bool, err error) {
	line, err = br.ReadSlice('\n')
	if err == nil || err == io.EOF {
		return line, false, err
	}
	if err != bufio.ErrBufferFull {
		return nil, false, err
	}
	head := append([]byte(nil), line...) // keep a prefix for best-effort id echo
	for err == bufio.ErrBufferFull {
		_, err = br.ReadSlice('\n')
	}
	if err == io.EOF {
		err = nil
	}
	return head, true, err
}

// ioDone maps clean end-of-stream conditions — EOF, our own side or the
// peer closing the connection during shutdown — to nil.
func ioDone(err error) error {
	if err == io.EOF || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// peekID pulls the correlation id out of a frame that failed decoding,
// so even an error reply correlates when the id field itself survived.
func peekID(line []byte) int64 {
	var probe struct {
		ID int64 `json:"id"`
	}
	json.Unmarshal(line, &probe) //nolint:errcheck — best effort by design
	return probe.ID
}

func (c *connState) reply(resp *Response) error {
	b, err := EncodeResponse(resp)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *connState) fail(id int64, code, format string, args ...any) error {
	return c.reply(&Response{V: Version, ID: id, OK: false, Code: code, Err: fmt.Sprintf(format, args...)})
}

func (c *connState) handle(line []byte) error {
	req, perr := DecodeFrame(line)
	if perr != nil {
		return c.fail(peekID(line), perr.Code, "%s", perr.Msg)
	}
	switch req.Op {
	case OpOpenSession:
		return c.openSession(req)
	case OpTransfer:
		return c.transfer(req)
	case OpAdvance:
		return c.advance(req)
	case OpQuery:
		return c.query(req)
	case OpCloseSession:
		return c.closeSession(req)
	}
	return c.fail(req.ID, CodeBadOp, "unknown op %q", req.Op) // unreachable: DecodeFrame validated
}

func (c *connState) openSession(req *Request) error {
	topo := topology.NewMesh(req.Width, req.Height)
	kind, err := core.ParseKind(req.Model)
	if err != nil {
		return c.fail(req.ID, CodeBadModel, "%v", err)
	}
	if len(c.sessions) >= c.d.opts.MaxSessionsPerConn {
		return c.fail(req.ID, CodeSessionLimit, "connection already holds %d sessions", len(c.sessions))
	}
	// Every session carries an observer so query replies and the expvar
	// branch can report prediction quality. The shared Options.Observer
	// (stdio mode) wins when set; otherwise each session gets a private
	// Metrics — safe under concurrent connections because the engine
	// goroutine discipline is per-session and the instances share nothing.
	observer := c.d.opts.Observer
	if observer == nil {
		observer = obs.New()
	}
	// ML kinds run on the reactive selector (the daemon loads no
	// weights). Build makes a fresh spec per session, so a stateful
	// selector (ML+TURBO) is never shared between engines.
	sess, err := sim.NewSession(sim.Config{
		Topo:      topo,
		Spec:      kind.Build(policy.ReactiveSelector{}, topo.NumRouters()),
		Shards:    req.Shards,
		LinkTicks: req.LinkTicks,
		Obs:       observer,
	})
	if err != nil {
		return c.fail(req.ID, CodeBadField, "%v", err)
	}
	d := c.d
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		sess.Close()
		return c.fail(req.ID, CodeShutdown, "daemon is draining")
	}
	d.nextSess++
	s := &session{
		id:    fmt.Sprintf("s%d", d.nextSess),
		model: req.Model,
		mesh:  fmt.Sprintf("%dx%d", req.Width, req.Height),
		sess:  sess,
	}
	d.sessions[s.id] = s
	d.mu.Unlock()
	c.sessions[s.id] = s
	c.publish(s)
	return c.reply(&Response{V: Version, ID: req.ID, OK: true, Session: s.id, Cores: sess.Cores()})
}

func (c *connState) lookup(req *Request) (*session, bool) {
	s, ok := c.sessions[req.Session]
	return s, ok
}

func (c *connState) transfer(req *Request) error {
	s, ok := c.lookup(req)
	if !ok {
		return c.fail(req.ID, CodeNoSession, "no session %q on this connection", req.Session)
	}
	at := s.sess.Now()
	if req.At != nil {
		at = *req.At
	}
	entries := ExpandTransfer(*req.Src, *req.Dst, *req.Bytes, at)
	est, err := s.sess.EstimateLatency(*req.Src, *req.Dst, entries[0].Kind)
	if err != nil {
		return c.fail(req.ID, CodeBadField, "%v", err)
	}
	for i, en := range entries {
		if err := s.sess.Schedule(en.Time, en.Src, en.Dst, en.Kind); err != nil {
			if i > 0 {
				// Validation is per-transfer up front (same src/dst/at for
				// every entry), so a mid-loop failure is unreachable; guard
				// anyway rather than half-apply silently.
				return c.fail(req.ID, CodeBadField, "transfer partially scheduled (%d/%d): %v", i, len(entries), err)
			}
			return c.fail(req.ID, CodeBadField, "%v", err)
		}
	}
	// No publish: Schedule only queues entries, so every stat the
	// previous op published still holds until the next advance.
	return c.reply(&Response{V: Version, ID: req.ID, OK: true,
		Packets: len(entries), LatencyEst: est})
}

func (c *connState) advance(req *Request) error {
	s, ok := c.lookup(req)
	if !ok {
		return c.fail(req.ID, CodeNoSession, "no session %q on this connection", req.Session)
	}
	d := c.d
	select {
	case d.slots <- struct{}{}:
	default:
		return c.reply(&Response{V: Version, ID: req.ID, OK: false,
			Code: CodeBusy, Err: "worker pool saturated", RetryAfterMS: d.opts.RetryAfterMS})
	}
	if d.advanceGate != nil {
		d.advanceGate(s.id)
	}
	n, err := s.sess.Advance(*req.Ticks)
	<-d.slots
	if err != nil {
		return c.fail(req.ID, CodeBadField, "%v", err)
	}
	st := c.publish(s)
	resp := &Response{V: Version, ID: req.ID, OK: true,
		Advanced: n, Now: st.Tick,
		StaticDeltaJ:  st.StaticJ - s.staticJ,
		DynamicDeltaJ: st.DynamicJ - s.dynamicJ,
	}
	s.staticJ, s.dynamicJ = st.StaticJ, st.DynamicJ
	return c.reply(resp)
}

func (c *connState) query(req *Request) error {
	s, ok := c.lookup(req)
	if !ok {
		return c.fail(req.ID, CodeNoSession, "no session %q on this connection", req.Session)
	}
	st := c.publish(s)
	return c.reply(&Response{V: Version, ID: req.ID, OK: true, Stats: &st})
}

func (c *connState) closeSession(req *Request) error {
	s, ok := c.lookup(req)
	if !ok {
		return c.fail(req.ID, CodeNoSession, "no session %q on this connection", req.Session)
	}
	st := s.sess.Snapshot()
	res := s.sess.Close()
	delete(c.sessions, s.id)
	c.d.mu.Lock()
	delete(c.d.sessions, s.id)
	c.d.mu.Unlock()
	return c.reply(&Response{V: Version, ID: req.ID, OK: true, Now: res.Ticks, Stats: &st})
}

// publish snapshots the session and stores the result where the expvar
// branch can read it without touching the engine.
func (c *connState) publish(s *session) Stats {
	st := s.sess.Snapshot()
	c.d.mu.Lock()
	s.pub = st
	c.d.mu.Unlock()
	return st
}

// --- expvar branch ---------------------------------------------------

// The "dozznoc.cosim" expvar map gives every live session its own
// branch keyed by session id: {model, mesh, tick, packets_delivered,
// static_j, dynamic_j, ...}. expvar names are process-global, so the
// variable is published once and reads through a registry of live
// daemons (a test or embedder may run several).
var (
	cosimPublishOnce sync.Once
	cosimRegMu       sync.Mutex
	cosimDaemons     = make(map[*Daemon]struct{})
)

func registerDaemon(d *Daemon) {
	cosimRegMu.Lock()
	cosimDaemons[d] = struct{}{}
	cosimRegMu.Unlock()
	cosimPublishOnce.Do(func() {
		expvar.Publish("dozznoc.cosim", expvar.Func(cosimExpvar))
	})
}

func unregisterDaemon(d *Daemon) {
	cosimRegMu.Lock()
	delete(cosimDaemons, d)
	cosimRegMu.Unlock()
}

func cosimExpvar() any {
	type sessionVar struct {
		Model string `json:"model"`
		Mesh  string `json:"mesh"`
		Stats
	}
	out := struct {
		Daemons  int                   `json:"daemons"`
		Sessions map[string]sessionVar `json:"sessions"`
	}{Sessions: make(map[string]sessionVar)}
	cosimRegMu.Lock()
	daemons := make([]*Daemon, 0, len(cosimDaemons))
	for d := range cosimDaemons {
		daemons = append(daemons, d)
	}
	cosimRegMu.Unlock()
	out.Daemons = len(daemons)
	for _, d := range daemons {
		d.mu.Lock()
		for id, s := range d.sessions {
			out.Sessions[id] = sessionVar{Model: s.model, Mesh: s.mesh, Stats: s.pub}
		}
		d.mu.Unlock()
	}
	return out
}
