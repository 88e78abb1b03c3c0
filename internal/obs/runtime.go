// Go runtime health metrics for both daemons: goroutine count and
// heap footprint from runtime/metrics, plus the process start time so
// scrapers compute uptime as time() - drmap_process_start_time_seconds.
package obs

import (
	"runtime/metrics"
	"time"
)

// processStart anchors uptime; package init runs before main, so this
// is as close to process birth as a pure-Go reading gets.
var processStart = time.Now()

// ProcessStart returns when this process started.
func ProcessStart() time.Time { return processStart }

// RegisterRuntimeMetrics registers the Go runtime health family on reg:
// drmap_go_goroutines, drmap_go_heap_bytes and
// drmap_process_start_time_seconds.
func RegisterRuntimeMetrics(reg *Registry) {
	reg.Func("drmap_go_goroutines", KindGauge,
		"Live goroutines in this process (runtime/metrics).",
		readRuntime("/sched/goroutines:goroutines"))
	reg.Func("drmap_go_heap_bytes", KindGauge,
		"Bytes occupied by live heap objects (runtime/metrics).",
		readRuntime("/memory/classes/heap/objects:bytes"))
	reg.Gauge("drmap_process_start_time_seconds",
		"Unix time the process started; uptime = time() - this.").
		With().Set(float64(processStart.UnixNano()) / 1e9)
}

// readRuntime reads one uint64 runtime/metrics sample per call (a
// fresh sample per read: scrapes run concurrently).
func readRuntime(name string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
}
