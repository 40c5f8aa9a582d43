// Package obshttp serves a registry over HTTP: /metrics as a JSON
// snapshot, /debug/vars via expvar, and the net/http/pprof handlers.
// It is part of the wall-clock plane — the obsplane lint rule forbids
// the deterministic core packages from importing it.
package obshttp

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// Server is a running metrics endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (":0" picks a free port) and serves reg until
// Close. The listener is bound synchronously, so Addr is valid as soon
// as Serve returns.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg)}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:43121".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down, waiting briefly for in-flight scrapes.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// Handler returns the endpoint's routes on a fresh mux:
//
//	/metrics       JSON snapshot of every instrument (schema ytcdn.metrics/v1)
//	/debug/vars    expvar (cmdline, memstats, and the same snapshot)
//	/debug/pprof/  the standard pprof handlers
func Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot()) //nolint:errcheck // client gone mid-write
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	publishExpvar(reg)
	return mux
}

// publishExpvar exposes the registry snapshot as the expvar "ytcdn".
// expvar's namespace is process-global and Publish panics on reuse, so
// the var is published once and re-publishing swaps the registry it
// reads (the latest Handler wins).
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[obs.Registry]
)

func publishExpvar(reg *obs.Registry) {
	expvarReg.Store(reg)
	expvarOnce.Do(func() {
		expvar.Publish("ytcdn", expvar.Func(func() any {
			r := expvarReg.Load()
			if r == nil {
				return nil
			}
			return r.Snapshot()
		}))
	})
}
