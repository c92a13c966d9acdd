package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestServersBoundHeaderTime: the service server and the pprof server
// both carry the header-read timeout, and the pprof server still routes
// its endpoints.
func TestServersBoundHeaderTime(t *testing.T) {
	svc := newHTTPServer(http.NotFoundHandler())
	prof := newPprofServer()
	for name, s := range map[string]*http.Server{"service": svc, "pprof": prof} {
		if s.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
			t.Errorf("%s server ReadHeaderTimeout = %v, want %v", name, s.ReadHeaderTimeout, readHeaderTimeout)
		}
	}
	rec := httptest.NewRecorder()
	prof.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", rec.Code)
	}
}
