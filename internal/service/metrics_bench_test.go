package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkExposeFullRegistry sizes one /metrics scrape through the HTTP
// handler: every daemon family on the obs registry plus cdn.Telemetry.
func BenchmarkExposeFullRegistry(b *testing.B) {
	d, err := New(Options{Epsilon: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	d.metrics.ticks.Add(17)
	d.metrics.solveSeconds.Observe(0.004)
	d.metrics.solverBids.Add(123)
	h := d.Handler()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Body.Len() == 0 {
			b.Fatal("empty exposition")
		}
	}
}
