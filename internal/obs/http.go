package obs

import (
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry as Prometheus text — the body of
// GET /debug/metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// RegisterDebug mounts the observability surface on mux:
//
//	GET /debug/metrics  — Prometheus text for reg
//	/debug/pprof/...    — the stdlib profiler endpoints
//
// The caller decides exposure: these endpoints reveal operational
// detail (and pprof can run CPU profiles on demand), so servers mount
// them only behind an explicit debug flag.
func RegisterDebug(mux *http.ServeMux, reg *Registry) {
	mux.Handle("GET /debug/metrics", Handler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
