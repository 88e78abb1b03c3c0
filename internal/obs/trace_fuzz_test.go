package obs

import (
	"regexp"
	"testing"
)

// hexIDRe is the pattern ValidTraceID and ValidSpanID implement by
// hand; the fuzz target holds the byte loop to it.
var hexIDRe = regexp.MustCompile(`^[a-f0-9]{8,32}$`)

// FuzzTraceID holds ValidTraceID and ValidSpanID to the regexp
// `^[a-f0-9]{8,32}$` on arbitrary strings. Plain go test replays the
// committed corpus under testdata/fuzz/FuzzTraceID: the length bounds
// 7/8/32/33, upper-case and non-ASCII hex look-alikes, a trailing
// newline and the header-injection string EnsureTrace must refuse.
func FuzzTraceID(f *testing.F) {
	f.Add(NewTraceID())
	f.Add(NewSpanID())
	f.Fuzz(func(t *testing.T, id string) {
		want := hexIDRe.MatchString(id)
		if got := ValidTraceID(id); got != want {
			t.Fatalf("ValidTraceID(%q) = %v, regexp says %v", id, got, want)
		}
		if got := ValidSpanID(id); got != want {
			t.Fatalf("ValidSpanID(%q) = %v, regexp says %v", id, got, want)
		}
	})
}

// TestNewIDsValidAndDistinct: 10k draws of each generator keep their
// widths (32 and 16 hex digits), pass the validators and never repeat.
func TestNewIDsValidAndDistinct(t *testing.T) {
	const draws = 10000
	for name, gen := range map[string]struct {
		next  func() string
		width int
	}{
		"trace": {NewTraceID, 32},
		"span":  {NewSpanID, 16},
	} {
		seen := make(map[string]bool, draws)
		for i := 0; i < draws; i++ {
			id := gen.next()
			if len(id) != gen.width || !ValidTraceID(id) || !ValidSpanID(id) {
				t.Fatalf("%s ID %q: want %d valid hex digits", name, id, gen.width)
			}
			if seen[id] {
				t.Fatalf("%s ID %q repeated within %d draws", name, id, i+1)
			}
			seen[id] = true
		}
	}
}
