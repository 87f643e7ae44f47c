package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ReadHeaderTimeout is how long every HTTP server in the module (this
// debug server, fttt-serve and fttt-router) waits for a request's
// headers, so a client that opens a connection and stalls cannot pin it
// open indefinitely.
const ReadHeaderTimeout = 10 * time.Second

// Server exposes a registry over HTTP for live inspection of a running
// simulation:
//
//	/metrics      Prometheus text format (the registry snapshot)
//	/debug/vars   expvar JSON (Go runtime memstats etc.)
//	/debug/pprof/ CPU/heap/goroutine profiles
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts serving reg on addr (e.g. ":9090" or "127.0.0.1:0") in a
// background goroutine and returns immediately. Close shuts it down.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	Register(mux, reg)
	s := &Server{srv: &http.Server{Handler: mux, ReadHeaderTimeout: ReadHeaderTimeout}, ln: ln}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// Register installs the debug endpoints — /metrics, /debug/vars and
// /debug/pprof/ — on mux, for callers that already run an HTTP server
// (e.g. the fttt-serve daemon mounting them next to its API routes).
func Register(mux *http.ServeMux, reg *Registry) {
	mux.Handle("/metrics", Handler(reg))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the /metrics handler alone, for callers that already
// run an HTTP server.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WriteTo(w) //nolint:errcheck // best-effort scrape
	})
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
