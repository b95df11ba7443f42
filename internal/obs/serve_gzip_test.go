package obs

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func scrapeMetrics(t *testing.T, h http.Handler, acceptEncoding string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	return rr
}

func TestMetricsContentTypeAndGzip(t *testing.T) {
	// The registry is process-global: match the counter's running total so
	// repeated runs (-count N) see their own value.
	marker := GetCounter("gzip_test.marker")
	incBy(marker, 7)
	want := fmt.Sprintf("gzip_test_marker %d", marker.Value())
	h := Handler()

	// Plain scrape: exposition content type, no encoding.
	rr := scrapeMetrics(t, h, "")
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	if rr.Header().Get("Content-Encoding") != "" {
		t.Fatal("plain scrape must not be encoded")
	}
	plain := rr.Body.String()
	if !strings.Contains(plain, want) {
		t.Fatalf("marker metric missing:\n%s", plain)
	}

	// Gzip scrape: encoded body gunzips to the same exposition.
	rr = scrapeMetrics(t, h, "gzip")
	if rr.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", rr.Header().Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(rr.Body)
	if err != nil {
		t.Fatalf("body is not gzip: %v", err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(unzipped), want) {
		t.Fatal("gunzipped body lacks marker metric")
	}
	if len(rr.Body.Bytes()) >= len(unzipped) && len(unzipped) > 256 {
		t.Fatalf("gzip did not compress: %d encoded vs %d plain", rr.Body.Len(), len(unzipped))
	}
}

func TestAcceptsGzipNegotiation(t *testing.T) {
	cases := []struct {
		hdr  string
		want bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"deflate, gzip;q=0.5, br", true},
		{"gzip;q=0", false},
		{"gzip; q=0.0", false},
		{"xgzipx", false},
		{"deflate", false},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		if c.hdr != "" {
			req.Header.Set("Accept-Encoding", c.hdr)
		}
		if got := acceptsGzip(req); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.hdr, got, c.want)
		}
	}
}
