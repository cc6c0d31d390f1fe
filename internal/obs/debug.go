package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// DebugConfig wires the debug plane's handlers. Every field is optional:
// a nil Registry serves an empty /metrics, a nil Tracer 404s
// /debug/trace, a nil Plan 404s /debug/plan, and a nil KeyLedger 404s
// /debug/keyledger.
type DebugConfig struct {
	// Registry backs /metrics (Prometheus text exposition format).
	Registry *Registry
	// Tracer backs /debug/trace (chrome://tracing JSON).
	Tracer *Tracer
	// Plan, when set, is marshaled to JSON at /debug/plan — the hook the
	// edge server points at its controller's current Plan.
	Plan func() any
	// KeyLedger, when set, is marshaled to JSON at /debug/keyledger —
	// the QKD key-flow ledger's attributed-withdrawal snapshot.
	KeyLedger func() any
}

// traceDumpMaxLimit bounds the limit= query parameter on /debug/trace.
const traceDumpMaxLimit = 100000

// traceDumpParams validates the /debug/trace query parameters. session=
// selects one session's ring (at most 256 visible bytes, matching wire
// session IDs); limit= truncates to the newest N traces (1..100000).
func traceDumpParams(r *http.Request) (session string, limit int, err error) {
	q := r.URL.Query()
	session = q.Get("session")
	if len(session) > 256 {
		return "", 0, fmt.Errorf("session: longer than 256 bytes")
	}
	for _, c := range session {
		if c < 0x20 || c == 0x7f {
			return "", 0, fmt.Errorf("session: control character %q", c)
		}
	}
	if raw := q.Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil {
			return "", 0, fmt.Errorf("limit: %q is not an integer", raw)
		}
		if limit < 1 || limit > traceDumpMaxLimit {
			return "", 0, fmt.Errorf("limit: %d outside [1, %d]", limit, traceDumpMaxLimit)
		}
	}
	return session, limit, nil
}

// jsonHandler renders fn's value as indented JSON, 404ing when fn is nil.
func jsonHandler(fn func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if fn == nil {
			http.NotFound(w, nil)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(fn())
	}
}

// DebugServer is the opt-in HTTP debug plane: /metrics, /debug/pprof/*,
// /debug/plan, /debug/keyledger and /debug/trace on one listener. It
// exists only when explicitly configured (edge.ServerConfig.DebugAddr);
// bind it to loopback unless the scrape network is trusted — it serves
// operational internals (latency profiles, session counts, pprof) with
// no authentication.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug binds addr and serves the debug plane until Close.
func ServeDebug(addr string, cfg DebugConfig) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if cfg.Registry != nil {
			_ = cfg.Registry.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/plan", jsonHandler(cfg.Plan))
	mux.HandleFunc("/debug/keyledger", jsonHandler(cfg.KeyLedger))
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Tracer == nil {
			http.NotFound(w, nil)
			return
		}
		session, limit, err := traceDumpParams(r)
		if err != nil {
			http.Error(w, "bad query parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTraces(w, cfg.Tracer.DumpFiltered(session, limit))
	})
	ds := &DebugServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = ds.srv.Serve(ln) }()
	return ds, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the debug plane.
func (d *DebugServer) Close() error { return d.srv.Close() }
