// The -pprof debug endpoint: net/http/pprof plus a live /metrics JSON
// snapshot, shared by every CLI so a stuck sweep can be profiled and
// watched without restarting it.

package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// StartDebugServer listens on addr and serves the Go profiling
// endpoints under /debug/pprof/ and the live counter snapshot as JSON
// under /metrics (and /, for curl convenience). It returns the bound
// address — pass ":0" to pick a free port — and a stop function that
// closes the listener and its connections. c may be nil, in which case
// /metrics serves an all-zero snapshot.
//
// The server runs entirely off the simulation path: profiling samples
// are taken by the Go runtime and /metrics reads copy the counters
// under their lock, so attaching it cannot perturb results.
func StartDebugServer(addr string, c *Counters) (string, func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	serveMetrics := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = c.Snapshot().WriteJSON(w)
	}
	mux.HandleFunc("/metrics", serveMetrics)
	mux.HandleFunc("/{$}", serveMetrics)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: debug server: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
