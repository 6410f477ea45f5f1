// The hit-path allocation guard. Kept out of race builds: the race runtime
// inserts its own allocations and breaks AllocsPerRun.

//go:build !race

package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestVSafeHitAllocBound: a warm /v1/vsafe hit on the LoRa peripheral
// (12,500 samples once sampled) allocates a small fixed amount — request
// decode, power resolution, response encode — and nothing trace-sized: the
// cache key comes from the load's description, so a hit never samples it.
func TestVSafeHitAllocBound(t *testing.T) {
	const (
		maxAllocs = 64       // allocations per request
		maxBytes  = 16 << 10 // bytes per request; the sampled trace alone is ~100 KB
	)
	s := New(Config{})
	h := s.Handler()
	body := []byte(`{"load":{"peripheral":"lora"}}`)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/vsafe", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	serve() // the miss: computes and fills the line
	before := s.Cache().Stats()

	const runs = 200
	allocs := testing.AllocsPerRun(runs, serve)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&m1)
	perOp := (m1.TotalAlloc - m0.TotalAlloc) / runs

	if st := s.Cache().Stats(); st.Misses != before.Misses {
		t.Fatalf("warm requests missed the cache: %+v -> %+v", before, st)
	}
	t.Logf("warm LoRa hit: %.0f allocs, %d B per request", allocs, perOp)
	if allocs > maxAllocs {
		t.Errorf("warm hit allocates %.0f times per request, want <= %d", allocs, maxAllocs)
	}
	if perOp > maxBytes {
		t.Errorf("warm hit allocates %d B per request, want <= %d", perOp, maxBytes)
	}
}
