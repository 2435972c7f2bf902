package obs

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexRangeConsistent(t *testing.T) {
	// Every bucket's own bounds must map back onto that bucket, buckets
	// must tile the axis with no gaps, and indices must be monotone.
	prevHi := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketRange(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d: lo=%d, want %d (gap after previous hi)", i, lo, prevHi+1)
		}
		if hi < lo {
			t.Fatalf("bucket %d: hi=%d < lo=%d", i, hi, lo)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lo=%d)=%d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi); got != i {
			t.Fatalf("bucketIndex(hi=%d)=%d, want %d", hi, got, i)
		}
		prevHi = hi
	}
	if got := bucketIndex(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("bucketIndex(MaxInt64)=%d, want %d", got, histBuckets-1)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Against a known distribution, every reported quantile must land
	// within the bucket-geometry error bound (12.5% relative) of the
	// exact order statistic.
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~1µs..100ms, exercising many octaves.
		v := int64(math.Exp(rng.Float64()*math.Log(1e5)) * 1e3)
		vals = append(vals, v)
		h.ObserveNanos(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		if relErr := math.Abs(float64(got-exact)) / float64(exact); relErr > 0.125 {
			t.Errorf("q=%g: got %d, exact %d, rel err %.3f > 0.125", q, got, exact, relErr)
		}
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count=%d, want %d", h.Count(), len(vals))
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if h.sum.Load() != sum {
		t.Fatalf("sum=%d, want %d", h.sum.Load(), sum)
	}
	if mean := h.Mean(); math.Abs(mean-float64(sum)/float64(len(vals))) > 1e-6 {
		t.Fatalf("mean=%g, want %g", mean, float64(sum)/float64(len(vals)))
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.ObserveNanos(-5) // clamps to 0
	h.ObserveNanos(0)
	h.Observe(3 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count=%d, want 3", h.Count())
	}
	if h.sum.Load() != int64(3*time.Millisecond) {
		t.Fatalf("sum=%d, want %d", h.sum.Load(), int64(3*time.Millisecond))
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestQuantileSmallN(t *testing.T) {
	// Nearest-rank at tiny counts: the p99 of two observations is the
	// larger one, not the minimum (a floor-the-rank bug would report a
	// p99 below the mean).
	var h Histogram
	h.ObserveNanos(70_000)
	h.ObserveNanos(2_100_000)
	if p99 := h.Quantile(0.99); p99 < 1_800_000 {
		t.Fatalf("p99 of {70µs, 2.1ms} = %d ns, want ~2.1ms", p99)
	}
	if p0 := h.Quantile(0); p0 > 80_000 {
		t.Fatalf("p0 = %d ns, want the ~70µs minimum", p0)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for i := int64(1); i <= 1000; i++ {
		a.ObserveNanos(i * 100)
		b.ObserveNanos(i * 37)
		both.ObserveNanos(i * 100)
		both.ObserveNanos(i * 37)
	}
	a.Merge(&b)
	a.Merge(nil)
	if a.Count() != both.Count() || a.sum.Load() != both.sum.Load() {
		t.Fatalf("merge: count/sum %d/%d, want %d/%d", a.Count(), a.sum.Load(), both.Count(), both.sum.Load())
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("merge: q=%g mismatch %d vs %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	// Run with -race: concurrent observers, a merger and a reader must
	// not race, and no observation may be lost.
	var h, other Histogram
	const (
		workers = 8
		perW    = 5000
	)
	for i := 0; i < 1000; i++ {
		other.ObserveNanos(int64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.ObserveNanos(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			h.Quantile(0.99)
			h.cumulative()
		}
	}()
	wg.Wait()
	h.Merge(&other)
	if want := int64(workers*perW + 1000); h.Count() != want {
		t.Fatalf("count=%d, want %d", h.Count(), want)
	}
	counts, total, _ := h.cumulative()
	if total != h.Count() {
		t.Fatalf("cumulative total=%d, want %d", total, h.Count())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("cumulative counts not monotone at %d", i)
		}
	}
}

func TestRegistryExpositionGolden(t *testing.T) {
	// Deterministic registry contents must render byte-for-byte as the
	// Prometheus text format: HELP/TYPE headers, sorted families, label
	// sets, cumulative le buckets with +Inf, _sum and _count.
	r := NewRegistry()
	c := r.Counter("priste_steps_served_total", "Steps served.", Label{"transport", "http"})
	c.Add(7)
	g := r.Gauge("priste_sessions_live", "Live sessions.")
	g.Add(3)
	r.GaugeFunc("priste_cert_cache_entries", "Certified-release cache entries.", func() float64 { return 12 })
	h := r.Histogram("priste_step_seconds", "Served step latency.", Label{"transport", "rpc"})
	h.ObserveNanos(2000)    // ≤ 2048    (le=0.000002048)
	h.ObserveNanos(3000)    // ≤ 4096
	h.ObserveNanos(3000000) // ≤ 2^22 ns (le=0.004194304)

	var b strings.Builder
	r.WriteText(&b)
	got := b.String()

	const want = `# HELP priste_cert_cache_entries Certified-release cache entries.
# TYPE priste_cert_cache_entries gauge
priste_cert_cache_entries 12
# HELP priste_sessions_live Live sessions.
# TYPE priste_sessions_live gauge
priste_sessions_live 3
# HELP priste_step_seconds Served step latency.
# TYPE priste_step_seconds histogram
`
	if !strings.HasPrefix(got, want) {
		t.Fatalf("exposition prefix mismatch:\ngot:\n%s\nwant prefix:\n%s", got, want)
	}
	for _, line := range []string{
		`priste_step_seconds_bucket{transport="rpc",le="0.000001024"} 0`,
		`priste_step_seconds_bucket{transport="rpc",le="0.000002048"} 1`,
		`priste_step_seconds_bucket{transport="rpc",le="0.000004096"} 2`,
		`priste_step_seconds_bucket{transport="rpc",le="0.004194304"} 3`,
		`priste_step_seconds_bucket{transport="rpc",le="+Inf"} 3`,
		`priste_step_seconds_sum{transport="rpc"} 0.003005`,
		`priste_step_seconds_count{transport="rpc"} 3`,
		`# HELP priste_steps_served_total Steps served.`,
		`# TYPE priste_steps_served_total counter`,
		`priste_steps_served_total{transport="http"} 7`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing line %q\nfull output:\n%s", line, got)
		}
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("priste_test_total", "A counter.").Add(1)
	RegisterRuntime(r)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type %q", ct)
	}
	body := rec.Body.String()
	for _, series := range []string{"priste_test_total 1", "go_goroutines ", "go_memstats_heap_alloc_bytes "} {
		if !strings.Contains(body, series) {
			t.Errorf("missing %q in:\n%s", series, body)
		}
	}
}

func TestTraceIDs(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID generated")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %x", id)
		}
		seen[id] = true
	}
	id := NewTraceID()
	s := FormatTrace(id)
	if len(s) != 16 {
		t.Fatalf("FormatTrace length %d: %q", len(s), s)
	}
	if back := ParseTrace(s); back != id {
		t.Fatalf("round trip: %x != %x", back, id)
	}
	for _, bad := range []string{"", "zz", "12345678123456781", "-1"} {
		if ParseTrace(bad) != 0 {
			t.Errorf("ParseTrace(%q) != 0", bad)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != 0 || TransportFrom(ctx) != "" {
		t.Fatal("fresh context should carry nothing")
	}
	ctx = WithTrace(ctx, 0xabc)
	ctx = WithTransport(ctx, "rpc")
	if TraceFrom(ctx) != 0xabc {
		t.Fatalf("trace=%x", TraceFrom(ctx))
	}
	if TransportFrom(ctx) != "rpc" {
		t.Fatalf("transport=%q", TransportFrom(ctx))
	}
	if WithTrace(ctx, 0) != ctx {
		t.Fatal("WithTrace(0) should be a no-op")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]string{"debug": "DEBUG", "": "INFO", "info": "INFO", "warn": "WARN", "error": "ERROR"} {
		l, err := ParseLevel(s)
		if err != nil || l.String() != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %s", s, l, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
}

func TestNewLogger(t *testing.T) {
	var b strings.Builder
	log := NewLogger(&b, LogJSON, 0)
	log.Info("hello", "k", "v")
	if !strings.Contains(b.String(), `"msg":"hello"`) || !strings.Contains(b.String(), `"k":"v"`) {
		t.Fatalf("json log output: %s", b.String())
	}
	b.Reset()
	log = NewLogger(&b, LogText, 0)
	log.Info("hello")
	if !strings.Contains(b.String(), "msg=hello") {
		t.Fatalf("text log output: %s", b.String())
	}
	NewLogger(nil, LogText, 0).Info("dropped") // must not panic
}
