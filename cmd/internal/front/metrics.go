// Live metrics endpoint: a tiny HTTP server exposing a JSON snapshot
// of whatever the caller's snapshot function returns (expvar-style,
// one document per scrape) plus the standard net/http/pprof handlers
// for on-demand CPU/heap profiling of a running node. The server is
// deliberately passive — it never touches the snapshot source except
// inside a request, so an idle endpoint costs nothing to the hot path.
// It lives with the commands, which alone serve it: no simulation
// package links net/http.
package front

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsServer is a running metrics endpoint. Close releases the
// listener; Fetch performs an in-process self-probe of /metrics (used
// by smoke tests to validate the endpoint without shelling out to
// curl).
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeMetrics starts an HTTP server on addr (e.g. "127.0.0.1:9090",
// or ":0" for an ephemeral port) serving:
//
//	/metrics            JSON document from snapshot(), pretty-printed
//	/debug/pprof/...    the standard runtime profiling endpoints
//
// snapshot is called once per /metrics request and must be safe for
// concurrent use (the obs snapshot types take their own locks). The
// server runs until Close; it says where it listens on stdout.
func ServeMetrics(addr string, snapshot func() any) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ms := &MetricsServer{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go ms.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	return ms, nil
}

// Addr returns the bound listen address (resolves ":0" to the real
// port).
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Fetch GETs /metrics over loopback and returns the raw JSON body —
// the self-probe smoke tests use to prove the endpoint serves what the
// snapshot function produces.
func (m *MetricsServer) Fetch() ([]byte, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + m.Addr() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: /metrics status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// Close shuts the server down and releases the port.
func (m *MetricsServer) Close() error { return m.srv.Close() }
