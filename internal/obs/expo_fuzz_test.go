package obs

import (
	"testing"
)

// FuzzExposition holds the exposition round trip to two properties:
// ParseExposition never panics on raw bytes (it rejects or parses
// them), and a label value and help string written by a Registry parse
// back equal. Plain go test replays the seeds below and the corpus
// under testdata/fuzz/FuzzExposition, which holds the /metrics catalog
// goldens of the standalone, coordinator and worker processes.
func FuzzExposition(f *testing.F) {
	f.Add([]byte("# HELP x one\n# TYPE x gauge\nx{a=\"b\"} 1\n"), `a\b"c`+"\nd", "Help with \\ and\nnewline.")
	f.Add([]byte("0"), "\x00", "0")
	f.Fuzz(func(t *testing.T, raw []byte, label, help string) {
		_, _ = ParseExposition(string(raw))

		r := NewRegistry()
		r.Counter("fuzz_total", help, "l").With(label).Inc()
		page := r.Expose()
		exp, err := ParseExposition(page)
		if err != nil {
			t.Fatalf("registry page unparseable: %v\n%s", err, page)
		}
		if got := exp.Families["fuzz_total"].Help; got != help {
			t.Fatalf("help %q parsed back as %q", help, got)
		}
		if v, ok := exp.Value("fuzz_total", map[string]string{"l": label}); !ok || v != 1 {
			t.Fatalf("label %q: sample = %v, %v; want 1\n%s", label, v, ok, page)
		}
	})
}
