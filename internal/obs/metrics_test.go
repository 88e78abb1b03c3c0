package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", "route", "status")
	c.With("/a", "200").Add(3)
	c.With("/a", "500").Inc()
	g := r.Gauge("test_temp", "A gauge.")
	g.With().Set(2.5)

	text := r.Expose()
	exp, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, text)
	}
	if v, ok := exp.Value("test_requests_total", map[string]string{"route": "/a", "status": "200"}); !ok || v != 3 {
		t.Fatalf("test_requests_total{/a,200} = %v, %v; want 3", v, ok)
	}
	if v, ok := exp.Value("test_temp", nil); !ok || v != 2.5 {
		t.Fatalf("test_temp = %v, %v; want 2.5", v, ok)
	}
	if exp.Families["test_requests_total"].Kind != KindCounter {
		t.Fatalf("test_requests_total kind = %q", exp.Families["test_requests_total"].Kind)
	}
	// Unlabeled samples must render as bare `name value` lines: the
	// services' metric tests (and simple scrapers) rely on it.
	if !strings.Contains(text, "test_temp 2.5\n") {
		t.Fatalf("unlabeled gauge not rendered bare:\n%s", text)
	}
}

func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	hh := h.With()
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		hh.Observe(v)
	}
	// le semantics: 0.1 falls in the 0.1 bucket, 100 only in +Inf.
	want := []int64{2, 3, 4, 5}
	got := hh.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if hh.Count() != 5 {
		t.Fatalf("count = %d, want 5", hh.Count())
	}
	if diff := hh.Sum() - 102.65; math.Abs(diff) > 1e-9 {
		t.Fatalf("sum = %v, want 102.65", hh.Sum())
	}

	exp, err := ParseExposition(r.Expose())
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if v, ok := exp.Value("test_latency_seconds_bucket", map[string]string{"le": "1"}); !ok || v != 3 {
		t.Fatalf("bucket le=1 = %v, %v; want 3", v, ok)
	}
	if v, ok := exp.Value("test_latency_seconds_bucket", map[string]string{"le": "+Inf"}); !ok || v != 5 {
		t.Fatalf("bucket le=+Inf = %v, %v; want 5", v, ok)
	}
	if v, ok := exp.Value("test_latency_seconds_count", nil); !ok || v != 5 {
		t.Fatalf("count sample = %v, %v; want 5", v, ok)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_esc_total", "Escapes.", "path").
		With("a\\b\"c\nd").Inc()
	text := r.Expose()
	exp, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, text)
	}
	if v, ok := exp.Value("test_esc_total", map[string]string{"path": "a\\b\"c\nd"}); !ok || v != 1 {
		t.Fatalf("escaped label roundtrip failed: %v, %v\n%s", v, ok, text)
	}
}

// TestGatherersAndDescribe: Func series read their value at every
// scrape and render with the kind and help they were registered with;
// labeled Func series share one family, and registering a series again
// keeps its first value function.
// TestLabelValuesKeepEveryByte: label values holding any byte - NUL
// included - render unchanged and never merge two distinct label sets.
func TestLabelValuesKeepEveryByte(t *testing.T) {
	r := NewRegistry()
	cv := r.Counter("test_pairs_total", "Pairs.", "a", "b")
	cv.With("x\x00y", "z").Inc()
	cv.With("x", "y\x00z").Add(2)
	exp, err := ParseExposition(r.Expose())
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	for _, c := range []struct {
		a, b string
		want float64
	}{{"x\x00y", "z", 1}, {"x", "y\x00z", 2}} {
		if v, ok := exp.Value("test_pairs_total", map[string]string{"a": c.a, "b": c.b}); !ok || v != c.want {
			t.Errorf("test_pairs_total{a=%q,b=%q} = %v, %v; want %v", c.a, c.b, v, ok, c.want)
		}
	}
}

func TestGatherersAndDescribe(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.Func("test_described", KindGauge, "Described gauge.", func() float64 { return v })
	r.Func("test_lookups_total", KindCounter, "Lookups.", func() float64 { return 2 }, Label{Key: "outcome", Value: "hit"})
	r.Func("test_lookups_total", KindCounter, "Lookups.", func() float64 { return 1 }, Label{Key: "outcome", Value: "miss"})
	r.Func("test_lookups_total", KindCounter, "Lookups.", func() float64 { return 3 }, Label{Key: "outcome", Value: "miss"})
	v = 8
	exp, err := ParseExposition(r.Expose())
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, r.Expose())
	}
	if fam := exp.Families["test_described"]; fam.Help != "Described gauge." || fam.Kind != KindGauge {
		t.Fatalf("test_described metadata = %q, %q", fam.Help, fam.Kind)
	}
	if got, ok := exp.Value("test_described", nil); !ok || got != 8 {
		t.Fatalf("test_described = %v, %v; want the scrape-time value 8", got, ok)
	}
	if exp.Families["test_lookups_total"].Kind != KindCounter {
		t.Fatalf("test_lookups_total kind = %q", exp.Families["test_lookups_total"].Kind)
	}
	for outcome, want := range map[string]float64{"hit": 2, "miss": 1} {
		if got, ok := exp.Value("test_lookups_total", map[string]string{"outcome": outcome}); !ok || got != want {
			t.Fatalf("test_lookups_total{outcome=%s} = %v, %v; want %v", outcome, got, ok, want)
		}
	}
}

func TestCappedCounterEvicts(t *testing.T) {
	r := NewRegistry()
	cv := r.CappedCounter("test_traces_total", "Traces.", 2, "trace_id")
	cv.With("t1").Inc()
	cv.With("t2").Inc()
	cv.With("t3").Inc() // evicts t1
	exp, err := ParseExposition(r.Expose())
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if _, ok := exp.Value("test_traces_total", map[string]string{"trace_id": "t1"}); ok {
		t.Fatal("t1 should have been evicted")
	}
	for _, id := range []string{"t2", "t3"} {
		if v, ok := exp.Value("test_traces_total", map[string]string{"trace_id": id}); !ok || v != 1 {
			t.Fatalf("%s = %v, %v; want 1", id, v, ok)
		}
	}
}

func TestSharedInstrumentAndSortedOutput(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_shared_total", "Shared.")
	b := r.Counter("test_shared_total", "Shared.")
	a.With().Inc()
	b.With().Add(2)
	if got := a.With().Value(); got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
	r.Gauge("test_z", "Z.").With().Set(1)
	r.Gauge("test_a", "A.").With().Set(1)
	text := r.Expose()
	if strings.Index(text, "test_a") > strings.Index(text, "test_z") {
		t.Fatalf("families not sorted:\n%s", text)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_metadata 1\n",
		"# HELP x one\nx 1\n",                         // TYPE missing
		"# HELP x one\n# TYPE x wat\nx 1\n",           // bad type
		"# HELP x one\n# TYPE x gauge\nx{a=b} 1\n",    // unquoted label
		"# HELP x one\n# TYPE x gauge\nx notanum\n",   // bad value
		"# HELP x one\n# TYPE x gauge\nx{a=\"b\" 1\n", // unterminated labels
	}
	for _, text := range bad {
		if _, err := ParseExposition(text); err == nil {
			t.Fatalf("ParseExposition accepted %q", text)
		}
	}
}

func TestBuildInfoMetric(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r)
	exp, err := ParseExposition(r.Expose())
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	fam := exp.Families["drmap_build_info"]
	if fam == nil || len(fam.Samples) != 1 {
		t.Fatalf("drmap_build_info missing: %+v", fam)
	}
	s := fam.Samples[0]
	if s.Value != 1 || s.Labels["go_version"] == "" {
		t.Fatalf("drmap_build_info sample = %+v", s)
	}
}
