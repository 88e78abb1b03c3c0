// The live ops dashboard: one server-rendered, zero-dependency HTML
// page at GET /debug/dashboard showing what both daemons are doing
// right now - jobs in flight, worker liveness (coordinator role),
// cache hit rates, and the slowest recently retained
// traces with links into the trace API. It auto-refreshes via a meta
// tag: no JavaScript, no assets, nothing to bundle.
package service

import (
	"fmt"
	"html/template"
	"net/http"
	"time"

	"drmap/internal/obs"
)

// DashboardOptions tune /debug/dashboard.
type DashboardOptions struct {
	// Role names the process on the page: "standalone", "coordinator"
	// or "worker" (empty renders as "standalone").
	Role string
	// Workers, when set, supplies the cluster membership table (the
	// coordinator role wires its Membership snapshot here).
	Workers func() []DashboardWorker
	// RefreshSeconds is the page's auto-refresh period (default 3).
	RefreshSeconds int
}

// DashboardWorker is one row of the dashboard's worker table.
type DashboardWorker struct {
	ID        string
	URL       string
	Capacity  int
	Live      bool
	AgeMillis int64
}

// dashboardCache is one cache section: stats plus the derived hit rate.
type dashboardCache struct {
	Name    string
	Stats   CacheStats
	HitRate string
}

type dashboardTrace struct {
	obs.TraceSummary
	Duration string
	Age      string
}

type dashboardJob struct {
	JobView
	Age      string
	Duration string
}

type dashboardData struct {
	Role    string
	Refresh int
	Version VersionResponse
	Uptime  string
	Now     string
	Health  HealthResponse
	Caches  []dashboardCache
	Jobs    []dashboardJob
	Workers []DashboardWorker
	Slowest []dashboardTrace
	Store   obs.SpanStoreStats
}

var dashboardTmpl = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html><head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{{.Refresh}}">
<title>drmap {{.Role}} dashboard</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 1.5rem; background: #111; color: #ddd; }
h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.5rem; border-bottom: 1px solid #333; padding-bottom: .25rem; }
table { border-collapse: collapse; margin-top: .5rem; }
th, td { text-align: left; padding: .2rem .8rem .2rem 0; border-bottom: 1px solid #222; }
th { color: #888; font-weight: normal; }
a { color: #7ad; text-decoration: none; }
.ok { color: #8d8; } .bad { color: #e77; } .dim { color: #777; }
</style>
</head><body>
<h1>drmap {{.Role}} <span class="dim">· {{.Version.Version}} {{.Version.GoVersion}}{{with .Version.Revision}} · {{.}}{{end}} · up {{.Uptime}} · {{.Now}}</span></h1>

<h2>Serving</h2>
<table>
<tr><th>workers</th><th>evaluations</th><th>traces retained</th><th>spans recorded</th><th>spans dropped</th><th>traces evicted</th></tr>
<tr><td>{{.Health.Workers}}</td><td>{{.Health.Evaluations}}</td><td>{{.Store.Traces}}</td><td>{{.Store.Recorded}}</td><td>{{.Store.DroppedSpans}}</td><td>{{.Store.Evicted}}</td></tr>
</table>

<h2>Caches</h2>
<table>
<tr><th>cache</th><th>hit rate</th><th>hits</th><th>misses</th><th>coalesced</th><th>entries</th><th>bytes</th><th>evictions</th></tr>
{{range .Caches}}<tr><td>{{.Name}}</td><td>{{.HitRate}}</td><td>{{.Stats.Hits}}</td><td>{{.Stats.Misses}}</td><td>{{.Stats.Coalesced}}</td><td>{{.Stats.Entries}}</td><td>{{.Stats.Bytes}}</td><td>{{.Stats.Evictions}}</td></tr>
{{end}}</table>

{{if .Workers}}<h2>Cluster workers</h2>
<table>
<tr><th>id</th><th>url</th><th>capacity</th><th>live</th><th>last heartbeat</th></tr>
{{range .Workers}}<tr><td>{{.ID}}</td><td>{{.URL}}</td><td>{{.Capacity}}</td><td>{{if .Live}}<span class="ok">live</span>{{else}}<span class="bad">dead</span>{{end}}</td><td>{{.AgeMillis}} ms ago</td></tr>
{{end}}</table>{{end}}

<h2>Jobs <span class="dim">(newest first)</span></h2>
{{if .Jobs}}<table>
<tr><th>id</th><th>kind</th><th>state</th><th>age</th><th>ran</th><th>trace</th></tr>
{{range .Jobs}}<tr><td>{{.ID}}</td><td>{{.Kind}}</td><td>{{if eq .State "failed"}}<span class="bad">{{.State}}</span>{{else if eq .State "succeeded"}}<span class="ok">{{.State}}</span>{{else}}{{.State}}{{end}}</td><td>{{.Age}}</td><td>{{.Duration}}</td><td><a href="/api/v1/traces/{{.TraceID}}">{{.TraceID}}</a></td></tr>
{{end}}</table>{{else}}<p class="dim">none</p>{{end}}

<h2>Slowest recent traces</h2>
{{if .Slowest}}<table>
<tr><th>trace</th><th>root</th><th>key</th><th>duration</th><th>spans</th><th>age</th><th>flags</th></tr>
{{range .Slowest}}<tr><td><a href="/api/v1/traces/{{.TraceID}}">{{.TraceID}}</a></td><td>{{.Root}}</td><td>{{.Key}}</td><td>{{.Duration}}</td><td>{{.Spans}}</td><td>{{.Age}}</td><td>{{if .Error}}<span class="bad">error</span>{{end}}{{if not .Complete}}<span class="dim">partial</span>{{end}}</td></tr>
{{end}}</table>{{else}}<p class="dim">none</p>{{end}}

<p class="dim">trace index: <a href="/api/v1/traces">/api/v1/traces</a> · metrics: <a href="/metrics">/metrics</a> · health: <a href="/healthz">/healthz</a></p>
</body></html>
`))

// hitRate renders a cache's hit+coalesced share of lookups.
func hitRate(st CacheStats) string {
	total := st.Hits + st.Misses + st.Coalesced
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(st.Hits+st.Coalesced)/float64(total))
}

func shortDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return d.Round(time.Second).String()
	}
}

// MountDashboard registers GET /debug/dashboard on the mux. jm may be
// nil (the jobs table renders empty).
func MountDashboard(mux *http.ServeMux, s *Service, jm *JobManager, opt DashboardOptions) {
	if opt.Role == "" {
		opt.Role = "standalone"
	}
	if opt.RefreshSeconds <= 0 {
		opt.RefreshSeconds = 3
	}
	mux.HandleFunc("GET /debug/dashboard", func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		data := dashboardData{
			Role:    opt.Role,
			Refresh: opt.RefreshSeconds,
			Version: Version(),
			Uptime:  now.Sub(obs.ProcessStart()).Round(time.Second).String(),
			Now:     now.Format(time.RFC3339),
			Health:  s.Health(),
			Caches: []dashboardCache{
				{Name: "results", Stats: s.CacheStats()},
				{Name: "count plans", Stats: s.PlanCacheStats()},
			},
		}
		for i := range data.Caches {
			data.Caches[i].HitRate = hitRate(data.Caches[i].Stats)
		}
		if st := s.Spans(); st != nil {
			data.Store = st.Stats()
			for _, sum := range st.Slowest(10) {
				data.Slowest = append(data.Slowest, dashboardTrace{
					TraceSummary: sum,
					Duration:     shortDur(time.Duration(sum.DurationMillis * float64(time.Millisecond))),
					Age:          shortDur(now.Sub(sum.Start)),
				})
			}
		}
		if jm != nil {
			for _, v := range jm.List(JobFilter{Limit: 15}) {
				dj := dashboardJob{JobView: v, Age: shortDur(now.Sub(v.CreatedAt))}
				switch {
				case !v.FinishedAt.IsZero():
					dj.Duration = shortDur(v.FinishedAt.Sub(v.StartedAt))
				case !v.StartedAt.IsZero():
					dj.Duration = shortDur(now.Sub(v.StartedAt)) + "…"
				}
				data.Jobs = append(data.Jobs, dj)
			}
		}
		if opt.Workers != nil {
			data.Workers = opt.Workers()
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := dashboardTmpl.Execute(w, data); err != nil {
			// Headers are out; nothing useful left to report.
			return
		}
	})
}
