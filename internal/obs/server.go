package obs

import (
	"context"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// liveSnapshot is the snapshot most recently published by any Metrics
// fold in the process. It is package-level because expvar names are
// process-global (Publish panics on duplicates): the endpoint always
// shows the most recently folded run, which is what a human watching a
// sweep wants. Folds publish only while openServers is above zero, so a
// run nobody can read copies nothing.
var (
	liveSnapshot atomic.Pointer[Snapshot]
	openServers  atomic.Int32
)

var publishOnce sync.Once

func setLiveSnapshot(s *Snapshot) {
	liveSnapshot.Store(s)
	publishOnce.Do(func() {
		expvar.Publish("dozznoc", expvar.Func(func() any {
			return liveSnapshot.Load()
		}))
	})
}

// LiveSnapshot returns the most recently published snapshot, or nil if
// no fold has happened while a Server was open.
func LiveSnapshot() *Snapshot { return liveSnapshot.Load() }

// Server is the live observability endpoint: expvar counters under
// /debug/vars (including the "dozznoc" snapshot), the standard pprof
// handlers under /debug/pprof/, and a Prometheus text exposition of the
// live snapshot under /metrics. It uses its own mux so enabling it never
// mutates http.DefaultServeMux.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	closed atomic.Bool
}

// shutdownTimeout bounds how long Close waits for in-flight handlers
// before force-closing their connections.
const shutdownTimeout = 5 * time.Second

// StartServer listens on addr (e.g. "localhost:6060"; ":0" picks a free
// port — read it back with Addr) and serves in a background goroutine.
// From then until Close, every Metrics fold in the process publishes the
// live snapshot. The server carries header/idle timeouts so a stalled or
// idle scrape client can never pin a connection open for the life of the
// run.
func StartServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", metricsHandler)
	s := &Server{ln: ln, srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}}
	openServers.Add(1)
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close gracefully shuts the server down: it stops accepting, waits up
// to shutdownTimeout for in-flight handlers to finish, then force-closes
// whatever remains. The first real error along that path is returned.
// Folds stop publishing once no Server is open.
func (s *Server) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		openServers.Add(-1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		if cerr := s.srv.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			return cerr
		}
		return err
	}
	return err
}

// metricsHandler renders the live snapshot in Prometheus text
// exposition format (promtext.go). Before the first fold there is
// nothing to expose and the body is empty — still a valid exposition.
func metricsHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if snap := LiveSnapshot(); snap != nil {
		w.Write(RenderMetrics(snap)) //nolint:errcheck // best-effort scrape reply
	}
}
