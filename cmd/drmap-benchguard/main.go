// Command drmap-benchguard gates benchmark regressions in CI. It reads
// two `go test -json -bench` output files - a committed baseline and
// the current run - extracts the best (minimum) ns/op, B/op and
// allocs/op per benchmark across repetitions, and fails when a
// selected benchmark's current best exceeds maxRatio (2x) times the
// baseline's in any gated dimension.
//
// Usage:
//
//	drmap-benchguard -baseline BENCH.json -current bench_new.json \
//	    -bench 'BenchmarkBatchMultiBackend/warm'
//
// The minimum across -count repetitions is used on both sides, so a
// single noisy repetition on a loaded CI box cannot fail (or pass) the
// gate by itself. Time is always gated; the memory dimensions are
// gated only when both runs report them (-benchmem), so a baseline
// recorded without memory stats does not fail fresh runs. A benchmark
// missing from the baseline passes with a notice - a freshly added
// benchmark has nothing to regress against.
//
// Certificates are custom metrics that pin an output, not a cost: the
// simulated cycle counts "sim-cycles" and "ctrl-cycles", and the
// "dse-picks" hash of the per-layer DSE picks. For every
// selected benchmark, each certificate the baseline reports must
// appear in the current run with exactly the baseline's value, and
// every repetition of a run must agree on it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// testEvent is the subset of the `go test -json` event stream the
// guard reads: benchmark results arrive as Output lines.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchStats is the per-benchmark minimum of each reported dimension.
// Bytes and Allocs are only meaningful when HasMem is set (the run
// used -benchmem). Custom metrics between ns/op and B/op are not cost
// dimensions; parseBench collects the certificates among them apart.
type benchStats struct {
	Ns     float64
	Bytes  float64
	Allocs float64
	HasMem bool
}

// benchLine matches a go benchmark result line, e.g.
// "BenchmarkRepriceFlat/flat-8   1000   25321 ns/op   0 B/op   0 allocs/op".
// The memory columns are optional (-benchmem), and custom metrics such
// as "2818328 sim-cycles" may sit between the time and memory columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// certMetric matches one certificate metric of a result line, e.g.
// "2818328 sim-cycles". The set of certificate units is fixed here.
var certMetric = regexp.MustCompile(`\s([0-9.eE+-]+) (sim-cycles|ctrl-cycles|dse-picks)(?:\s|$)`)

// certKey names one certificate: a benchmark and a certificate unit.
type certKey struct{ Bench, Unit string }

// procsSuffix is the "-8" GOMAXPROCS suffix go test appends to
// benchmark names on multi-core machines. It is stripped before
// matching (as benchstat does), so a baseline recorded on a box with a
// different core count still gates the current run instead of being
// skipped as "no baseline".
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts the per-dimension minima per benchmark name from
// a `go test -json` stream (plain `go test -bench` text also parses:
// non-JSON lines are scanned directly). A single benchmark result is
// often split across two output events - the runner flushes the name
// when the benchmark starts and the numbers when it finishes - so
// output fragments are reassembled into lines before matching. Each
// dimension's minimum is taken independently: the cheapest repetition
// in time need not be the cheapest in bytes, and the guard compares
// best case against best case per dimension. Certificates are returned
// separately, one value per (benchmark, unit); a certificate whose
// repetitions disagree is recorded as NaN, which equals nothing.
func parseBench(r io.Reader) (map[string]benchStats, map[certKey]float64, error) {
	best := map[string]benchStats{}
	certs := map[certKey]float64{}
	record := func(line string) error {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			return nil
		}
		name := procsSuffix.ReplaceAllString(m[1], "")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		st, ok := best[name]
		if !ok || ns < st.Ns {
			st.Ns = ns
		}
		if m[3] != "" {
			b, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return fmt.Errorf("bad B/op in %q: %w", line, err)
			}
			a, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
			if !st.HasMem || b < st.Bytes {
				st.Bytes = b
			}
			if !st.HasMem || a < st.Allocs {
				st.Allocs = a
			}
			st.HasMem = true
		}
		best[name] = st
		for _, cm := range certMetric.FindAllStringSubmatch(line, -1) {
			v, err := strconv.ParseFloat(cm[1], 64)
			if err != nil {
				return fmt.Errorf("bad %s in %q: %w", cm[2], line, err)
			}
			k := certKey{Bench: name, Unit: cm[2]}
			if prev, ok := certs[k]; ok && prev != v {
				v = math.NaN()
			}
			certs[k] = v
		}
		return nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var pending string
	for sc.Scan() {
		raw := sc.Text()
		if !strings.HasPrefix(raw, "{") {
			if err := record(raw); err != nil {
				return nil, nil, err
			}
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			return nil, nil, fmt.Errorf("bad test2json line %q: %w", raw, err)
		}
		if ev.Action != "output" {
			continue
		}
		pending += ev.Output
		for {
			i := strings.IndexByte(pending, '\n')
			if i < 0 {
				break
			}
			if err := record(pending[:i]); err != nil {
				return nil, nil, err
			}
			pending = pending[i+1:]
		}
	}
	if err := record(pending); err != nil {
		return nil, nil, err
	}
	return best, certs, sc.Err()
}

// parseBenchFile is parseBench over a file path.
func parseBenchFile(path string) (map[string]benchStats, map[certKey]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return parseBench(f)
}

// maxRatio bounds the allowed current/baseline growth of every gated
// dimension: ns/op, and B/op and allocs/op when both runs report them.
const maxRatio = 2.0

// gateDim checks one dimension of one benchmark, writing a verdict
// line and reporting failure. A zero baseline only passes a zero
// current: there is no meaningful ratio against zero, and a benchmark
// that was allocation-free must stay allocation-free.
func gateDim(report io.Writer, name, unit string, base, cur float64) (failed bool) {
	ratio := 1.0
	switch {
	case base > 0:
		ratio = cur / base
	case cur > 0:
		ratio = maxRatio + 1 // 0 -> non-0: always a regression
	}
	verdict := "ok"
	if ratio > maxRatio {
		verdict = "REGRESSION"
		failed = true
	}
	fmt.Fprintf(report, "benchguard: %s: baseline %.0f %s, current %.0f %s, ratio %.2f (max %.2f) %s\n",
		name, base, unit, cur, unit, ratio, maxRatio, verdict)
	return failed
}

// guard compares current against baseline for every benchmark matching
// pattern and returns the failures (and a human report).
func guard(baseline, current map[string]benchStats, pattern *regexp.Regexp, report io.Writer) (failures int) {
	names := make([]string, 0, len(current))
	for name := range current {
		if pattern.MatchString(name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(report, "benchguard: no current benchmark matches %q\n", pattern)
		return 1
	}
	for _, name := range names {
		cur := current[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Fprintf(report, "benchguard: %s: no baseline (new benchmark), skipping\n", name)
			continue
		}
		if gateDim(report, name, "ns/op", base.Ns, cur.Ns) {
			failures++
		}
		if base.HasMem && cur.HasMem {
			if gateDim(report, name, "B/op", base.Bytes, cur.Bytes) {
				failures++
			}
			if gateDim(report, name, "allocs/op", base.Allocs, cur.Allocs) {
				failures++
			}
		} else if cur.HasMem != base.HasMem {
			fmt.Fprintf(report, "benchguard: %s: memory stats on one side only, skipping B/op and allocs/op\n", name)
		}
	}
	return failures
}

// guardCerts checks every baseline certificate of a benchmark matching
// pattern: the current run must report it with exactly the baseline's
// value. It returns the failures and writes a verdict line per
// certificate.
func guardCerts(baseline, current map[certKey]float64, pattern *regexp.Regexp, report io.Writer) (failures int) {
	for k, base := range baseline {
		if !pattern.MatchString(k.Bench) {
			continue
		}
		cur, ok := current[k]
		switch {
		case !ok:
			fmt.Fprintf(report, "benchguard: %s: baseline %.0f %s, missing from current run CERTIFICATE MISSING\n", k.Bench, base, k.Unit)
			failures++
		case math.IsNaN(cur):
			fmt.Fprintf(report, "benchguard: %s: baseline %.0f %s, current repetitions disagree CERTIFICATE UNSTABLE\n", k.Bench, base, k.Unit)
			failures++
		case cur != base:
			fmt.Fprintf(report, "benchguard: %s: baseline %.0f %s, current %.0f %s CERTIFICATE CHANGED\n", k.Bench, base, k.Unit, cur, k.Unit)
			failures++
		default:
			fmt.Fprintf(report, "benchguard: %s: %.0f %s matches baseline exactly ok\n", k.Bench, cur, k.Unit)
		}
	}
	return failures
}

func main() {
	baselinePath := flag.String("baseline", "", "committed go test -json bench output to compare against")
	currentPath := flag.String("current", "", "fresh go test -json bench output")
	benchPat := flag.String("bench", ".", "regexp selecting which benchmarks to gate")
	flag.Parse()

	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline and -current are required")
		os.Exit(2)
	}
	pattern, err := regexp.Compile(*benchPat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: bad -bench:", err)
		os.Exit(2)
	}
	baseline, baseCerts, err := parseBenchFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: baseline:", err)
		os.Exit(2)
	}
	current, curCerts, err := parseBenchFile(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: current:", err)
		os.Exit(2)
	}
	failures := guard(baseline, current, pattern, os.Stdout)
	failures += guardCerts(baseCerts, curCerts, pattern, os.Stdout)
	if failures > 0 {
		os.Exit(1)
	}
}
