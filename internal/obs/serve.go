package obs

import (
	"compress/gzip"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Serve starts a background HTTP server exposing the process's
// observability surface:
//
//	/metrics        Prometheus text exposition of the default registry
//	/debug/metrics  human-oriented plain-text dump (quantile digests)
//	/debug/pprof    the standard Go profiler endpoints
//	/debug/spans    the background span tree (live; open spans show elapsed)
//
// It returns the bound address (useful with ":0") once the listener is
// up; the server itself runs until the process exits. Binaries enable it
// behind a -obs flag so profiling a slow LOSO run is one flag away.
func Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	go func() { _ = http.Serve(ln, Handler()) }()
	return ln.Addr(), nil
}

// Handler returns the observability HTTP handler used by Serve, so
// long-running servers can mount it on their own mux instead.
func Handler() http.Handler {
	PublishBuildInfo()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Refresh uptime on scrape so the gauge is live even without a
		// running runtime sampler.
		gUptime.Set(time.Since(procStart).Seconds())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var out io.Writer = w
		if acceptsGzip(r) {
			w.Header().Set("Content-Encoding", "gzip")
			gz := gzip.NewWriter(w)
			defer gz.Close()
			out = gz
		}
		_ = Default().WritePrometheus(out)
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, MetricsDump()+"\n")
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, SpanTree()+"\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// acceptsGzip reports whether the scraper advertised gzip support.
// Token-level match (not a raw substring) so "xgzipx" does not count, and
// an explicit "gzip;q=0" refusal is honoured; Prometheus sends a plain
// "gzip" token.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc := strings.TrimSpace(part)
		params := ""
		if i := strings.IndexByte(enc, ';'); i >= 0 {
			enc, params = strings.TrimSpace(enc[:i]), strings.ReplaceAll(enc[i+1:], " ", "")
		}
		if !strings.EqualFold(enc, "gzip") {
			continue
		}
		if strings.HasPrefix(params, "q=") {
			switch params[2:] {
			case "0", "0.0", "0.00", "0.000":
				return false
			}
		}
		return true
	}
	return false
}
