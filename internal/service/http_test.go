package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drmap/internal/cnn"
)

func newTestServer(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewHandler(svc, 2*time.Minute))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func TestHTTPHealthz(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 2, CacheEntries: 8}))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" || h.Workers != 2 {
		t.Errorf("health %+v", h)
	}
}

func TestHTTPPolicies(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 2, CacheEntries: 8}))
	resp, err := http.Get(ts.URL + "/api/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var pr PoliciesResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(pr.Policies) != 6 {
		t.Fatalf("got %d policies, want 6", len(pr.Policies))
	}
	for _, p := range pr.Policies {
		if len(p.Order) != 4 {
			t.Errorf("policy %d order %v", p.ID, p.Order)
		}
	}
}

// TestHTTPDSEAlexNet is the acceptance flow: POST /api/v1/dse for
// AlexNet answers valid JSON with one design point per layer.
func TestHTTPDSEAlexNet(t *testing.T) {
	svc := New(Options{Workers: 0, CacheEntries: 8})
	ts := newTestServer(t, svc)
	resp, body := postJSON(t, ts.URL+"/api/v1/dse", `{"arch":"ddr3","network":"alexnet"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dr DSEResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if want := len(cnn.AlexNet().Layers); len(dr.Result.Layers) != want {
		t.Fatalf("got %d layers, want %d", len(dr.Result.Layers), want)
	}
	if dr.Result.Arch != "DDR3" {
		t.Errorf("arch %q", dr.Result.Arch)
	}
	if dr.Result.TotalEDPJs <= 0 {
		t.Error("non-positive total EDP")
	}
	// Algorithm 1 picks DRMap (Mapping-3) for AlexNet's first layer.
	if dr.Result.Layers[0].Mapping.ID != 3 {
		t.Errorf("layer 1 mapping %d, want 3 (DRMap)", dr.Result.Layers[0].Mapping.ID)
	}
	if dr.Cached {
		t.Error("first request reported cached")
	}

	// An identical request is a cache hit.
	resp2, body2 := postJSON(t, ts.URL+"/api/v1/dse", `{"arch":"ddr3","network":"alexnet"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	var dr2 DSEResponse
	if err := json.Unmarshal(body2, &dr2); err != nil {
		t.Fatal(err)
	}
	if !dr2.Cached {
		t.Error("repeated request missed the cache")
	}
	if dr2.Result.TotalEDPJs != dr.Result.TotalEDPJs {
		t.Error("cached result differs")
	}
	if st := svc.CacheStats(); st.Hits < 1 {
		t.Errorf("cache stats record no hit: %+v", st)
	}
}

// TestHTTPDSESingleFlight: N concurrent identical POSTs cost one DSE
// evaluation.
func TestHTTPDSESingleFlight(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	ts := newTestServer(t, svc)
	// Warm the characterization so only the DSE evaluation remains.
	if resp, body := postJSON(t, ts.URL+"/api/v1/characterize", `{"archs":["salp2"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm characterize: %d %s", resp.StatusCode, body)
	}
	before := svc.Evaluations()

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/dse", "application/json",
				bytes.NewReader([]byte(`{"arch":"salp2","network":"lenet5"}`)))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("request %d: status %d", i, st)
		}
	}
	if got := svc.Evaluations() - before; got != 1 {
		t.Errorf("%d concurrent identical POSTs cost %d evaluations, want 1", n, got)
	}
}

func TestHTTPCharacterizeGET(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 4, CacheEntries: 8}))
	resp, err := http.Get(ts.URL + "/api/v1/characterize?arch=ddr3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr CharacterizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Profiles) != 1 || cr.Profiles[0].Arch != "DDR3" {
		t.Errorf("profiles %+v", cr.Profiles)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 1, CacheEntries: 4}))
	cases := []struct {
		path, body string
	}{
		{"/api/v1/dse", `{"arch":"ddr9","network":"lenet5"}`},
		{"/api/v1/dse", `not json`},
		{"/api/v1/dse", `{"arch":"ddr3","network":"lenet5","bogus_field":1}`},
		{"/api/v1/sweep", `{"kind":"nope"}`},
		// Sweep points the sweep could not run: a zero buffer, a
		// subarray count that does not divide the rows, and batches
		// whose counts could reach 2^53 (once 200s with a negative EDP).
		{"/api/v1/sweep", `{"kind":"buffers","values":[0],"network":"lenet5"}`},
		{"/api/v1/sweep", `{"kind":"subarrays","values":[3],"network":"lenet5"}`},
		{"/api/v1/sweep", `{"kind":"batch","values":[1099511627776],"network":"alexnet"}`},
		{"/api/v1/sweep", `{"kind":"buffers","values":[64],"batch":35184372088832,"network":"alexnet"}`},
		{"/api/v1/simulate", `{"arch":"ddr3","policy":99}`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", c.path, c.body, resp.StatusCode)
			continue
		}
		var e errorJSON
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("POST %s: error body %q not a JSON error", c.path, body)
		}
	}
	// Wrong method on a POST endpoint.
	resp, err := http.Get(ts.URL + "/api/v1/dse")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/v1/dse: status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPSweepValuesCapped: a sweep of more than maxSweepValues values
// is a 400 naming the cap on v1 and on v2 submit, counted before
// repeats are dropped; a list at the cap parses.
func TestHTTPSweepValuesCapped(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 1, CacheEntries: 4}))
	values := make([]int, maxSweepValues+1)
	for i := range values {
		values[i] = 1 + i%2
	}
	vals, err := json.Marshal(values)
	if err != nil {
		t.Fatal(err)
	}
	sweep := `{"kind":"batch","network":"lenet5","values":` + string(vals) + `}`
	want := fmt.Sprintf("at most %d", maxSweepValues)
	for _, c := range []struct{ path, body string }{
		{"/api/v1/sweep", sweep},
		{"/api/v2/jobs", `{"kind":"sweep","sweep":` + sweep + `}`},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		var e errorJSON
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400 (%s)", c.path, resp.StatusCode, body)
		} else if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, want) {
			t.Errorf("POST %s: error body %q lacks %q", c.path, body, want)
		}
	}
	if _, err := parseSweep(SweepRequest{Kind: "batch", Network: "lenet5", Values: values[:maxSweepValues]}); err != nil {
		t.Errorf("%d values: %v", maxSweepValues, err)
	}
}

// TestHTTPRejectsUnboundedCustomLayers: a custom layer padded as wide
// as its kernel, one whose element counts overflow int64, or a valid one
// whose access counts could reach 2^53 (the 2^28 x 2^28 FC layer once
// came back as a 200 with a negative EDP) is a 400 with a message naming
// the layer on v1 DSE and on v2 submit - not a job priced from a
// clamped, wrapped or rounded count.
func TestHTTPRejectsUnboundedCustomLayers(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 1, CacheEntries: 4}))
	layers := []struct{ layer, want string }{
		{`{"name":"wide-pad","h":4,"w":4,"j":4,"i":4,"p":1,"q":1,"stride":1,"pad":5}`, "smaller than the 1x1 kernel"},
		{`{"name":"huge","h":1073741824,"w":1073741824,"j":1073741824,"i":1073741824,"p":3,"q":3,"stride":1,"pad":1}`, "too large"},
		{`{"name":"fc","kind":"fc","h":1,"w":1,"j":268435456,"i":268435456,"p":1,"q":1,"stride":1}`, "layer fc at batch 1: too large to count exactly"},
		{`{"name":"fc","kind":"fc","h":1,"w":1,"j":2147483648,"i":2147483648,"p":1,"q":1,"stride":1}`, "layer fc at batch 1: too large to count exactly"},
	}
	for _, l := range layers {
		dse := `{"arch":"ddr3","layers":[` + l.layer + `]}`
		for _, c := range []struct{ path, body string }{
			{"/api/v1/dse", dse},
			{"/api/v2/jobs", `{"kind":"dse","dse":` + dse + `}`},
		} {
			resp, body := postJSON(t, ts.URL+c.path, c.body)
			var e errorJSON
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s %s: status %d, want 400 (%s)", c.path, l.layer, resp.StatusCode, body)
			} else if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, l.want) {
				t.Errorf("POST %s: error body %q lacks %q", c.path, body, l.want)
			}
		}
	}
}

// TestCountRangeKeepsBuiltInNetworks: the count-range check rejects a
// built-in network only at an absurd batch, naming the layer - a
// simulate of AlexNet at batch 2^40 once came back as a 200 with
// negative EDPs; at the batches clients use every built-in network
// resolves, so its picks (pinned by TestServiceDSEMatchesSerialAndCaches
// and the dse-picks certificate) stand.
func TestCountRangeKeepsBuiltInNetworks(t *testing.T) {
	for _, name := range []string{"lenet5", "alexnet", "vgg16", "resnet18"} {
		for _, batch := range []int{1, 4, 1024} {
			if _, err := parseDSE(DSERequest{Arch: "ddr3", Network: name, Batch: batch}); err != nil {
				t.Errorf("%s at batch %d: %v", name, batch, err)
			}
		}
	}
	if _, err := parseDSE(DSERequest{Arch: "ddr3", Network: "alexnet", Batch: 1 << 40}); err == nil || !strings.Contains(err.Error(), "layer CONV1") {
		t.Errorf("alexnet at batch 2^40: err %v, want one naming CONV1", err)
	}
	if _, err := parseSimulate(SimulateRequest{Arch: "ddr3", Network: "alexnet", Batch: 1 << 40}); err == nil || !strings.Contains(err.Error(), "layer CONV1") {
		t.Errorf("simulate alexnet at batch 2^40: err %v, want one naming CONV1", err)
	}
}

func TestHTTPSweepAndSimulate(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 2, CacheEntries: 8}))
	resp, body := postJSON(t, ts.URL+"/api/v1/sweep", `{"kind":"subarrays","values":[2,4],"network":"lenet5"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Table.Rows) != 2 {
		t.Errorf("sweep rows %+v", sr.Table.Rows)
	}

	sim := `{"arch":"ddr3","policy":3,"layer":{"name":"c1","h":10,"w":10,"j":16,"i":6,"p":5,"q":5,"stride":1},"tiling":{"th":10,"tw":10,"tj":16,"ti":6},"schedule":"ofms"}`
	resp, body = postJSON(t, ts.URL+"/api/v1/simulate", sim)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	var simr SimulateResponse
	if err := json.Unmarshal(body, &simr); err != nil {
		t.Fatal(err)
	}
	if simr.Cost.EDPJs <= 0 {
		t.Errorf("simulate cost %+v", simr.Cost)
	}
}

// TestHTTPBackends: GET /api/v1/backends lists the registry (paper
// architectures plus generality presets) with geometry summaries.
func TestHTTPBackends(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 1, CacheEntries: 4}))
	resp, err := http.Get(ts.URL + "/api/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BackendsResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(br.Backends) < 6 {
		t.Fatalf("got %d backends, want >= 6", len(br.Backends))
	}
	byID := map[string]bool{}
	for _, b := range br.Backends {
		byID[b.ID] = true
		if b.Name == "" || b.Arch == "" {
			t.Errorf("backend %q missing name/arch: %+v", b.ID, b)
		}
		if b.Geometry.Banks <= 0 || b.Timing.TCKNanos <= 0 {
			t.Errorf("backend %q missing geometry/timing summary: %+v", b.ID, b)
		}
	}
	for _, want := range []string{"ddr3", "salp1", "salp2", "masa", "ddr4", "lpddr3", "lpddr4", "hbm2"} {
		if !byID[want] {
			t.Errorf("backend %q not listed", want)
		}
	}
}

// TestHTTPDSEOnGeneralityBackend is the acceptance flow for the
// registry refactor: POST /api/v1/dse with a non-paper backend ID
// returns a valid DSE result labeled with the backend.
func TestHTTPDSEOnGeneralityBackend(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 0, CacheEntries: 8}))
	resp, body := postJSON(t, ts.URL+"/api/v1/dse", `{"arch":"ddr4","network":"lenet5"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dr DSEResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if dr.Result.Arch != "DDR4-2400" || dr.Result.Backend != "ddr4" {
		t.Errorf("result labeled %q/%q, want DDR4-2400/ddr4", dr.Result.Arch, dr.Result.Backend)
	}
	if want := len(cnn.LeNet5().Layers); len(dr.Result.Layers) != want {
		t.Fatalf("got %d layers, want %d", len(dr.Result.Layers), want)
	}
	if dr.Result.TotalEDPJs <= 0 {
		t.Error("non-positive total EDP")
	}
}

// TestHTTPDSEHitBodyBytes: a v1 DSE body is the typed response in
// two-space-indented JSON with a trailing newline, byte for byte,
// whether the request evaluated (cached:false) or hit the result cache
// and wrote the body its entry encodes once (cached:true; the hits race
// for that first encoding).
func TestHTTPDSEHitBodyBytes(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	ts := newTestServer(t, svc)
	for name, body := range map[string]string{
		"built-in": `{"arch":"ddr3","network":"alexnet"}`,
		"custom": `{"arch":"salp2","objective":"energy","layers":[` +
			`{"name":"conv1","h":8,"w":8,"j":16,"i":3,"p":3,"q":3,"stride":1,"pad":1},` +
			`{"name":"fc","kind":"fc","h":1,"w":1,"j":10,"i":1024,"p":1,"q":1,"stride":1}]}`,
	} {
		var bodies [5][]byte
		post := func(i int) {
			resp, err := http.Post(ts.URL+"/api/v1/dse", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("%s POST %d: %v", name, i, err)
				return
			}
			defer resp.Body.Close()
			if bodies[i], err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%s POST %d: status %d, err %v: %s", name, i, resp.StatusCode, err, bodies[i])
			}
		}
		post(0)
		var wg sync.WaitGroup
		for i := 1; i < len(bodies); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				post(i)
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		var req DSERequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		typed, err := svc.DSE(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: DSE: %v", name, err)
		}
		for i, got := range bodies {
			typed.Cached = i > 0
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(typed); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s POST %d (cached=%v): body differs from the typed response's encoding:\n got %q\nwant %q",
					name, i, typed.Cached, got, want.Bytes())
			}
		}
	}
}
