package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

const jsonStream = `{"Action":"output","Output":"goos: linux\n"}
{"Action":"output","Output":"BenchmarkBatchMultiBackend/warm-8   \t     100\t  25000000 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Output":"BenchmarkBatchMultiBackend/warm-8   \t     100\t  21000000 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Output":"BenchmarkBatchMultiBackend/recount-8\t      10\t 188000000 ns/op\n"}
{"Action":"run","Test":"BenchmarkRepriceFlat"}
{"Action":"output","Output":"BenchmarkRepriceFlat/flat-8\t   50000\t     25321.5 ns/op\n"}
`

func TestParseBenchJSONStream(t *testing.T) {
	got, _, err := parseBench(strings.NewReader(jsonStream))
	if err != nil {
		t.Fatal(err)
	}
	// Minimum across repetitions, full sub-benchmark names, fractional
	// ns/op accepted, memory stats only where reported.
	want := map[string]benchStats{
		"BenchmarkBatchMultiBackend/warm":    {Ns: 21000000, HasMem: true},
		"BenchmarkBatchMultiBackend/recount": {Ns: 188000000},
		"BenchmarkRepriceFlat/flat":          {Ns: 25321.5},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, st := range want {
		if got[name] != st {
			t.Errorf("%s = %+v, want %+v", name, got[name], st)
		}
	}
}

func TestParseBenchMemAndCustomMetrics(t *testing.T) {
	// Custom metrics (sim-cycles) sit between ns/op and B/op; each
	// dimension's minimum is taken independently across repetitions.
	stream := "BenchmarkSimulateSerial   \t       1\t   5000000 ns/op\t   2818328 sim-cycles\t  500000 B/op\t     300 allocs/op\n" +
		"BenchmarkSimulateSerial   \t       1\t   6000000 ns/op\t   2818328 sim-cycles\t  455560 B/op\t     290 allocs/op\n"
	got, _, err := parseBench(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	want := benchStats{Ns: 5000000, Bytes: 455560, Allocs: 290, HasMem: true}
	if got["BenchmarkSimulateSerial"] != want {
		t.Errorf("parsed %+v, want %+v", got["BenchmarkSimulateSerial"], want)
	}
}

func TestParseBenchSplitEvents(t *testing.T) {
	// The runner flushes the benchmark name when the benchmark starts
	// and the numbers when it finishes, so test2json delivers one
	// result as two output events; the parser must reassemble them.
	split := `{"Action":"output","Output":"BenchmarkRegistrySweep/delta-8         \t"}
{"Action":"output","Output":"       1\t  26901691 ns/op\t 9297712 B/op\t   21306 allocs/op\n"}
{"Action":"output","Output":"BenchmarkRegistrySweep/delta-8         \t"}
{"Action":"run","Test":"noise"}
{"Action":"output","Output":"       1\t  27483031 ns/op\n"}
`
	got, _, err := parseBench(strings.NewReader(split))
	if err != nil {
		t.Fatal(err)
	}
	st := got["BenchmarkRegistrySweep/delta"]
	if st.Ns != 26901691 || st.Bytes != 9297712 || st.Allocs != 21306 || !st.HasMem {
		t.Errorf("split-event parse: %+v", st)
	}
}

func TestParseBenchPlainText(t *testing.T) {
	got, _, err := parseBench(strings.NewReader(
		"BenchmarkX-4   1000   500 ns/op\nok  \tdrmap\t1.0s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX"].Ns != 500 {
		t.Errorf("plain text parse: %v", got)
	}
}

func TestGuardVerdicts(t *testing.T) {
	baseline := map[string]benchStats{"BenchmarkA-8": {Ns: 100}, "BenchmarkB-8": {Ns: 100}}
	pat := regexp.MustCompile("BenchmarkA")

	var rep strings.Builder
	if f := guard(baseline, map[string]benchStats{"BenchmarkA-8": {Ns: 150}}, pat, &rep); f != 0 {
		t.Errorf("1.5x under a 2.0 cap failed: %s", rep.String())
	}
	rep.Reset()
	if f := guard(baseline, map[string]benchStats{"BenchmarkA-8": {Ns: 250}}, pat, &rep); f != 1 {
		t.Errorf("2.5x under a 2.0 cap passed: %s", rep.String())
	}
	if !strings.Contains(rep.String(), "REGRESSION") {
		t.Errorf("report does not name the regression: %s", rep.String())
	}
	// A benchmark with no baseline passes (nothing to regress against)...
	rep.Reset()
	if f := guard(map[string]benchStats{}, map[string]benchStats{"BenchmarkA-8": {Ns: 250}}, pat, &rep); f != 0 {
		t.Errorf("missing baseline failed the gate: %s", rep.String())
	}
	// ...but a pattern matching nothing current fails loudly (the gate
	// must not silently pass when the benchmark was renamed away).
	rep.Reset()
	if f := guard(baseline, map[string]benchStats{"BenchmarkB-8": {Ns: 10}}, pat, &rep); f == 0 {
		t.Error("pattern matching no current benchmark passed")
	}
}

func TestGuardMemoryDimensions(t *testing.T) {
	pat := regexp.MustCompile("BenchmarkA")
	base := map[string]benchStats{
		"BenchmarkA-8": {Ns: 100, Bytes: 1000, Allocs: 10, HasMem: true},
	}

	// Time fine, bytes 3x: one failure.
	var rep strings.Builder
	cur := map[string]benchStats{"BenchmarkA-8": {Ns: 100, Bytes: 3000, Allocs: 10, HasMem: true}}
	if f := guard(base, cur, pat, &rep); f != 1 {
		t.Errorf("3x B/op under a 2.0 cap: failures=%d: %s", f, rep.String())
	}
	if !strings.Contains(rep.String(), "B/op") || !strings.Contains(rep.String(), "REGRESSION") {
		t.Errorf("report does not name the B/op regression: %s", rep.String())
	}

	// Allocs 5x and bytes 5x: two failures.
	rep.Reset()
	cur = map[string]benchStats{"BenchmarkA-8": {Ns: 100, Bytes: 5000, Allocs: 50, HasMem: true}}
	if f := guard(base, cur, pat, &rep); f != 2 {
		t.Errorf("5x both memory dims: failures=%d: %s", f, rep.String())
	}

	// A zero-alloc baseline must stay zero-alloc.
	rep.Reset()
	zeroBase := map[string]benchStats{"BenchmarkA-8": {Ns: 100, HasMem: true}}
	cur = map[string]benchStats{"BenchmarkA-8": {Ns: 100, Bytes: 8, Allocs: 1, HasMem: true}}
	if f := guard(zeroBase, cur, pat, &rep); f != 2 {
		t.Errorf("0 -> non-0 memory: failures=%d: %s", f, rep.String())
	}
	rep.Reset()
	cur = map[string]benchStats{"BenchmarkA-8": {Ns: 100, HasMem: true}}
	if f := guard(zeroBase, cur, pat, &rep); f != 0 {
		t.Errorf("0 -> 0 memory flagged: %s", rep.String())
	}

	// Memory stats on one side only: gate time, skip memory.
	rep.Reset()
	cur = map[string]benchStats{"BenchmarkA-8": {Ns: 150, Bytes: 1 << 30, Allocs: 1 << 20, HasMem: true}}
	noMemBase := map[string]benchStats{"BenchmarkA-8": {Ns: 100}}
	if f := guard(noMemBase, cur, pat, &rep); f != 0 {
		t.Errorf("one-sided memory stats gated: %s", rep.String())
	}
	if !strings.Contains(rep.String(), "skipping B/op") {
		t.Errorf("report does not note the skipped memory gate: %s", rep.String())
	}
}

func TestParseBenchCertificates(t *testing.T) {
	stream := "BenchmarkSimulateSerial   \t       1\t   5000000 ns/op\t   2818328 sim-cycles\t  500000 B/op\t     300 allocs/op\n" +
		"BenchmarkSimulateSerial   \t       1\t   6000000 ns/op\t   2818328 sim-cycles\t  455560 B/op\t     290 allocs/op\n" +
		"BenchmarkMemctrlRun-8     \t       1\t   5000000 ns/op\t    152566 ctrl-cycles\n" +
		"BenchmarkBatchMultiBackend/warm/8-backends-8\t       1\t   5000000 ns/op\t3735928559 dse-picks\t       0 B/op\t       0 allocs/op\n" +
		"BenchmarkFlaky            \t       1\t   5000000 ns/op\t       100 sim-cycles\n" +
		"BenchmarkFlaky            \t       1\t   5000000 ns/op\t       101 sim-cycles\n" +
		"BenchmarkCounted          \t       1\t   5000000 ns/op\t         3 count-passes\n"
	_, certs, err := parseBench(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(certs) != 4 {
		t.Fatalf("parsed certificates %v, want sim-cycles, ctrl-cycles, dse-picks and the flaky one only", certs)
	}
	if v := certs[certKey{"BenchmarkSimulateSerial", "sim-cycles"}]; v != 2818328 {
		t.Errorf("sim-cycles = %v, want 2818328", v)
	}
	if v := certs[certKey{"BenchmarkMemctrlRun", "ctrl-cycles"}]; v != 152566 {
		t.Errorf("ctrl-cycles = %v, want 152566", v)
	}
	if v := certs[certKey{"BenchmarkBatchMultiBackend/warm/8-backends", "dse-picks"}]; v != 3735928559 {
		t.Errorf("dse-picks = %v, want 3735928559", v)
	}
	if v := certs[certKey{"BenchmarkFlaky", "sim-cycles"}]; !math.IsNaN(v) {
		t.Errorf("repetitions that disagree parsed as %v, want NaN", v)
	}
}

func TestGuardCertificates(t *testing.T) {
	pat := regexp.MustCompile("BenchmarkSimulateSerial$|BenchmarkMemctrlRun$")
	base := map[certKey]float64{
		{"BenchmarkSimulateSerial", "sim-cycles"}:     2818328,
		{"BenchmarkMemctrlRun", "ctrl-cycles"}:        152566,
		{"BenchmarkSimulateSerial/pre", "sim-cycles"}: 2818328, // not selected
	}
	equal := map[certKey]float64{
		{"BenchmarkSimulateSerial", "sim-cycles"}: 2818328,
		{"BenchmarkMemctrlRun", "ctrl-cycles"}:    152566,
	}
	var rep strings.Builder
	if f := guardCerts(base, equal, pat, &rep); f != 0 {
		t.Errorf("equal certificates failed: %s", rep.String())
	}

	rep.Reset()
	changed := map[certKey]float64{
		{"BenchmarkSimulateSerial", "sim-cycles"}: 2818329,
		{"BenchmarkMemctrlRun", "ctrl-cycles"}:    152566,
	}
	if f := guardCerts(base, changed, pat, &rep); f != 1 || !strings.Contains(rep.String(), "CERTIFICATE CHANGED") {
		t.Errorf("changed sim-cycles: failures=%d: %s", f, rep.String())
	}

	rep.Reset()
	missing := map[certKey]float64{{"BenchmarkSimulateSerial", "sim-cycles"}: 2818328}
	if f := guardCerts(base, missing, pat, &rep); f != 1 || !strings.Contains(rep.String(), "CERTIFICATE MISSING") {
		t.Errorf("missing ctrl-cycles: failures=%d: %s", f, rep.String())
	}

	rep.Reset()
	flaky := map[certKey]float64{
		{"BenchmarkSimulateSerial", "sim-cycles"}: math.NaN(),
		{"BenchmarkMemctrlRun", "ctrl-cycles"}:    152566,
	}
	if f := guardCerts(base, flaky, pat, &rep); f != 1 {
		t.Errorf("repetitions that disagree passed: %s", rep.String())
	}
}
