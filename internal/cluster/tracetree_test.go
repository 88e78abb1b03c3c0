package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"drmap/internal/obs"
	"drmap/internal/service"
)

// clusterPair wires one coordinator process and one worker process the
// way drmap-serve -role coordinator and drmap-worker do, over httptest.
type clusterPair struct {
	coordSrv  *httptest.Server
	workerSrv *httptest.Server
	svc       *service.Service
	wsvc      *service.Service
	workerID  string
}

func newClusterPair(t *testing.T) *clusterPair {
	t.Helper()
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordinatorOptions{Registry: reg})
	svc := service.New(service.Options{
		Workers: 2, CacheEntries: 32, Runner: coord,
		Registry: reg,
	})
	obs.RegisterBuildInfo(reg)
	obs.RegisterRuntimeMetrics(reg)
	jm := service.NewJobManager(svc, service.JobManagerOptions{})
	mux := service.NewHandlerWithJobs(svc, jm, time.Minute)
	coord.Mount(mux)
	coordSrv := httptest.NewServer(service.Observe(mux, reg, nil, svc.Spans()))
	t.Cleanup(coordSrv.Close)

	wsvc := service.New(service.Options{Workers: 2, CacheEntries: 32})
	obs.RegisterBuildInfo(wsvc.Registry())
	obs.RegisterRuntimeMetrics(wsvc.Registry())
	w := NewWorker(wsvc, WorkerOptions{ID: "w1"})
	wmux := service.NewHandler(wsvc, time.Minute)
	w.Mount(wmux)
	workerSrv := httptest.NewServer(service.Observe(wmux, wsvc.Registry(), nil, wsvc.Spans()))
	t.Cleanup(workerSrv.Close)
	coord.Membership().Heartbeat(WorkerInfo{ID: w.ID(), URL: workerSrv.URL, Capacity: 2})

	return &clusterPair{coordSrv: coordSrv, workerSrv: workerSrv, svc: svc, wsvc: wsvc, workerID: w.ID()}
}

// runTracedJob submits one v2 job with the given trace ID and follows
// its event stream to the terminal state.
func runTracedJob(t *testing.T, baseURL, trace, body string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/api/v2/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit job: %v", err)
	}
	var submitted service.JobView
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
	}
	sresp, err := http.Get(baseURL + "/api/v2/jobs/" + submitted.ID + "/events?from=0")
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer sresp.Body.Close()
	dec := json.NewDecoder(sresp.Body)
	for {
		var ev service.JobEvent
		if err := dec.Decode(&ev); err != nil {
			break // EOF after the terminal event
		}
		if ev.Type == service.EventState && ev.State == service.JobFailed {
			t.Fatalf("job failed: %+v", ev)
		}
	}
}

// TestTraceTreeAcrossCluster is the tentpole acceptance contract: a
// distributed batch submitted through the coordinator yields ONE
// assembled trace tree containing the HTTP root, the job manager's
// queue/run spans, per-shard dispatch spans, and the worker's own
// shard/count/price spans - shipped back inside the shard responses -
// with consistent parentage and sane timing. Runs under -race in the
// CI cluster job.
func TestTraceTreeAcrossCluster(t *testing.T) {
	p := newClusterPair(t)
	const trace = "cafef00d00000077"
	runTracedJob(t, p.coordSrv.URL, trace, `{"kind":"batch","batch":{"jobs":[
		{"arch":"ddr3","network":"lenet5"},{"arch":"salp1","network":"lenet5"}]}}`)

	// Fetch the assembled tree over the public API, like the CLI does.
	tresp, err := http.Get(p.coordSrv.URL + "/api/v1/traces/" + trace)
	if err != nil {
		t.Fatalf("GET trace tree: %v", err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace tree: status %d", tresp.StatusCode)
	}
	var tree obs.TraceTree
	if err := json.NewDecoder(tresp.Body).Decode(&tree); err != nil {
		t.Fatalf("decode tree: %v", err)
	}

	// One connected tree: the middleware's request span is the only root.
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "request" {
		names := make([]string, len(tree.Roots))
		for i, r := range tree.Roots {
			names[i] = r.Name
		}
		t.Fatalf("tree roots = %v, want exactly [request]", names)
	}

	var spans []obs.Span
	byID := map[string]obs.Span{}
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		spans = append(spans, n.Span)
		byID[n.SpanID] = n.Span
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Roots[0])

	counts := map[string]int{}
	workerRecorded := map[string]int{} // names recorded by the worker process
	for _, s := range spans {
		counts[s.Name]++
		if strings.HasPrefix(s.Process, "worker/") {
			workerRecorded[s.Name]++
		}
	}
	for name, min := range map[string]int{
		"job.queue": 1, "job.run": 1, "dse": 2, "shard.dispatch": 1, "shard.merge": 1,
	} {
		if counts[name] < min {
			t.Errorf("tree has %d %q spans, want >= %d (all: %v)", counts[name], name, min, counts)
		}
	}
	// The shared dispatcher stamps the job kind on its spans.
	for _, s := range spans {
		if kind, _ := s.Attr("kind"); (s.Name == "shard.dispatch" || s.Name == "shard.merge") && kind != "dse" {
			t.Errorf("%s span %s carries kind=%q, want dse", s.Name, s.SpanID, kind)
		}
	}
	// The shard/count/price spans crossed the process boundary inside
	// the shard responses: they carry the worker's process name.
	for _, name := range []string{"shard.evaluate", "count", "price"} {
		if workerRecorded[name] == 0 {
			t.Errorf("no worker-recorded %q span in the assembled tree (worker spans: %v)",
				name, workerRecorded)
		}
	}

	// Parentage is consistent: every span's parent is in the tree, and
	// worker shard spans hang under coordinator dispatch spans.
	for _, s := range spans {
		if s.Name == "request" {
			continue
		}
		parent, ok := byID[s.ParentID]
		if !ok {
			t.Errorf("span %s (%s) has parent %s outside the tree", s.SpanID, s.Name, s.ParentID)
			continue
		}
		if s.Name == "shard.evaluate" && parent.Name != "shard.dispatch" {
			t.Errorf("shard.evaluate parents to %q, want shard.dispatch", parent.Name)
		}
		// Timing containment, with slack for clock reads on either side
		// of an HTTP hop. Children of the request span are exempt: a v2
		// job legitimately outlives the submit request.
		if parent.Name == "request" {
			continue
		}
		const slack = 10 * time.Millisecond
		if s.Start.Before(parent.Start.Add(-slack)) || s.End.After(parent.End.Add(slack)) {
			t.Errorf("span %s [%v..%v] escapes parent %s [%v..%v]",
				s.Name, s.Start, s.End, parent.Name, parent.Start, parent.End)
		}
	}

	// The worker's own trace store retained its side of the story too.
	if _, ok := p.wsvc.Spans().Summary(trace); !ok {
		t.Error("worker-local span store did not retain the trace")
	}

	// Chrome trace-event export parses and spans both processes.
	chResp, err := http.Get(p.coordSrv.URL + "/api/v1/traces/" + trace + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer chResp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(chResp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome export is not valid trace-event JSON: %v", err)
	}
	complete, processNames := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "M":
			processNames++
		}
	}
	if complete != len(spans) {
		t.Errorf("chrome export has %d complete events for %d spans", complete, len(spans))
	}
	if processNames < 2 {
		t.Errorf("chrome export names %d processes, want >= 2 (coordinator + worker)", processNames)
	}
}

// TestMetricsHelpCatalog is the /metrics registry contract: every
// family either process exposes must carry real, non-placeholder # HELP
// text and a legal metric name. Help text is given where each series is
// registered; a family registered without it fails here.
func TestMetricsHelpCatalog(t *testing.T) {
	p := newClusterPair(t)
	// Drive one distributed evaluation so the trace, job, phase and
	// cluster families all have samples on the page.
	runTracedJob(t, p.coordSrv.URL, "feedface00000001",
		`{"kind":"dse","dse":{"arch":"ddr3","network":"lenet5"}}`)

	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	for _, proc := range []struct {
		role string
		url  string
	}{
		{"coordinator", p.coordSrv.URL},
		{"worker", p.workerSrv.URL},
	} {
		resp, err := http.Get(proc.url + "/metrics")
		if err != nil {
			t.Fatalf("GET %s /metrics: %v", proc.role, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		expo, err := obs.ParseExposition(string(raw))
		if err != nil {
			t.Fatalf("%s /metrics unparseable: %v", proc.role, err)
		}
		if len(expo.Families) < 10 {
			t.Fatalf("%s /metrics lists only %d families; traffic did not register", proc.role, len(expo.Families))
		}
		for name, fam := range expo.Families {
			if !nameRe.MatchString(name) {
				t.Errorf("%s: illegal metric family name %q", proc.role, name)
			}
			if strings.TrimSpace(fam.Help) == "" {
				t.Errorf("%s: family %s has empty # HELP", proc.role, name)
			}
			if strings.HasPrefix(fam.Help, "drmap metric ") {
				t.Errorf("%s: family %s ships placeholder help %q - give it real help text where it is registered",
					proc.role, name, fam.Help)
			}
		}
		// The simulate instrumentation is pre-touched at registry
		// creation, so both processes must catalog it.
		for _, want := range []string{"drmap_sim_commands_total", "drmap_sim_engine_seconds"} {
			if _, ok := expo.Families[want]; !ok {
				t.Errorf("%s: family %s missing from /metrics", proc.role, want)
			}
		}
	}
}
