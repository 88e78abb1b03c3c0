package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"drmap/internal/core"
)

func submitJob(t *testing.T, baseURL, body string) JobView {
	t.Helper()
	resp, raw := postJSON(t, baseURL+"/api/v2/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var view JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatalf("decode job view: %v\n%s", err, raw)
	}
	if view.ID == "" {
		t.Fatalf("job view without ID: %s", raw)
	}
	return view
}

func getJob(t *testing.T, baseURL, id string) JobView {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/v2/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// holdingRunner parks DSE jobs for one backend ID until released;
// everything else (and everything after release) falls back to the
// local pool via ErrNoWorkers. It makes "item 1 still running while
// item 0 streams" deterministic instead of a race against the
// evaluator's speed.
type holdingRunner struct {
	holdID  string
	release chan struct{}
}

func (r *holdingRunner) RunDSE(ctx context.Context, job DSEJob, _ []core.LayerGrid) (*core.DSEResult, error) {
	if job.Backend.ID == r.holdID {
		select {
		case <-r.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("holdingRunner declines: %w", ErrNoWorkers)
}

// TestHTTPV2BatchStreamsWhileRunning is the tentpole acceptance flow:
// a batch job submitted via POST /api/v2/jobs streams its first item
// over /events while the second is still evaluating; the stream is
// then abandoned (client disconnect) and the job's full outcome is
// still retrievable - from the job store directly and as a complete
// event replay.
func TestHTTPV2BatchStreamsWhileRunning(t *testing.T) {
	runner := &holdingRunner{holdID: "salp2", release: make(chan struct{})}
	svc := New(Options{Workers: 1, CacheEntries: 16, Runner: runner})
	ts := newTestServer(t, svc)

	// Warm item 0 so it commits instantly; item 1 is held by the
	// runner until this test has proven the job was mid-flight.
	if resp, body := postJSON(t, ts.URL+"/api/v1/dse", `{"arch":"ddr3","network":"lenet5"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm DSE: %d %s", resp.StatusCode, body)
	}
	view := submitJob(t, ts.URL, `{"kind":"batch","batch":{"jobs":[
		{"arch":"ddr3","network":"lenet5"},
		{"arch":"salp2","network":"alexnet"}]}}`)

	// Open the NDJSON stream and read up to the first item event.
	streamResp, err := http.Get(ts.URL + "/api/v2/jobs/" + view.ID + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	dec := json.NewDecoder(streamResp.Body)
	var firstItem JobEvent
	for {
		var e JobEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("stream ended before any item event: %v", err)
		}
		if e.Type == EventItem {
			firstItem = e
			break
		}
	}
	if firstItem.Item == nil || firstItem.Item.Error != "" || firstItem.Item.Result == nil {
		t.Fatalf("first item event malformed: %+v", firstItem)
	}
	if firstItem.Index != 0 {
		t.Errorf("first streamed item has index %d, want 0 (the cached job)", firstItem.Index)
	}

	// The stream delivered item 0 while item 1 (a full AlexNet search
	// on one worker) is still running: the job must not be terminal.
	mid := getJob(t, ts.URL, view.ID)
	if mid.State.Terminal() {
		t.Errorf("job already %s right after the first item streamed", mid.State)
	}

	// Client disconnect: drop the stream mid-job, then let item 1 run.
	streamResp.Body.Close()
	close(runner.release)

	// The job finishes regardless; its result is retrievable from the
	// store afterward.
	deadline := time.Now().Add(2 * time.Minute)
	var final JobView
	for {
		final = getJob(t, ts.URL, view.ID)
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished after the client disconnected")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != JobSucceeded {
		t.Fatalf("final state %s (%s)", final.State, final.Error)
	}
	var batch BatchResponse
	if err := json.Unmarshal(final.Result, &batch); err != nil {
		t.Fatalf("decode stored result: %v", err)
	}
	if batch.Completed != 2 || batch.Failed != 0 {
		t.Fatalf("batch completed=%d failed=%d, want 2/0", batch.Completed, batch.Failed)
	}

	// Stream-reconnect: a fresh read from seq 0 replays the whole log
	// (both items, the result, the terminal state) and then ends.
	replayResp, err := http.Get(ts.URL + "/api/v2/jobs/" + view.ID + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer replayResp.Body.Close()
	items, gotResult, gotTerminal := 0, false, false
	replay := json.NewDecoder(replayResp.Body)
	for {
		var e JobEvent
		if err := replay.Decode(&e); err != nil {
			break // EOF: the server closed after the terminal event
		}
		switch e.Type {
		case EventItem:
			items++
		case EventResult:
			gotResult = true
		case EventState:
			gotTerminal = e.State.Terminal() || gotTerminal
		}
	}
	if items != 2 || !gotResult || !gotTerminal {
		t.Errorf("replay saw items=%d result=%v terminal=%v, want 2/true/true", items, gotResult, gotTerminal)
	}
}

// TestHTTPV2DSELayerStreaming: a DSE job streams one layer event per
// network layer, in commit order for the eager per-layer reduction.
func TestHTTPV2DSELayerStreaming(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	ts := newTestServer(t, svc)
	view := submitJob(t, ts.URL, `{"kind":"dse","dse":{"arch":"salp1","network":"lenet5"}}`)

	resp, err := http.Get(ts.URL + "/api/v2/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	layers := map[int]bool{}
	var final JobState
	for {
		var e JobEvent
		if err := dec.Decode(&e); err != nil {
			break
		}
		switch e.Type {
		case EventLayer:
			if e.Layer == nil || e.Layer.MinEDPJs <= 0 {
				t.Errorf("layer event %d malformed: %+v", e.Index, e)
			}
			layers[e.Index] = true
		case EventState:
			final = e.State
		}
	}
	if len(layers) == 0 {
		t.Fatal("no layer events streamed")
	}
	if final != JobSucceeded {
		t.Fatalf("stream ended with state %q", final)
	}
	job := getJob(t, ts.URL, view.ID)
	var dse DSEResponse
	if err := json.Unmarshal(job.Result, &dse); err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(dse.Result.Layers) {
		t.Errorf("streamed %d layers, result has %d", len(layers), len(dse.Result.Layers))
	}
}

// TestHTTPV2SSE: Accept: text/event-stream switches the wire format.
func TestHTTPV2SSE(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	ts := newTestServer(t, svc)
	view := submitJob(t, ts.URL, `{"kind":"characterize","characterize":{"archs":["ddr3"]}}`)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v2/jobs/"+view.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	ids, datas := 0, 0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			ids++
		}
		if strings.HasPrefix(line, "data: {") {
			datas++
		}
	}
	if ids == 0 || ids != datas {
		t.Errorf("SSE framing: %d id lines, %d data lines", ids, datas)
	}
}

// TestHTTPV2CancelFlow: DELETE cancels a running job; canceling a
// finished job is 409; unknown jobs are 404. Once the canceled job's
// detached evaluation is released, no goroutine it started survives.
func TestHTTPV2CancelFlow(t *testing.T) {
	runner := &blockingRunner{release: make(chan struct{})}
	svc := New(Options{Workers: 1, CacheEntries: 8, Runner: runner})
	ts := newTestServer(t, svc)
	checkLeaks := goroutineBaseline(t)

	view := submitJob(t, ts.URL, `{"kind":"dse","dse":{"arch":"ddr3","network":"lenet5"}}`)

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v2/jobs/"+view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if v := getJob(t, ts.URL, view.ID); v.State.Terminal() {
			if v.State != JobCanceled {
				t.Fatalf("state %s after cancel, want canceled", v.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never became terminal after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Cancel-after-complete: 409.
	resp2, err := http.DefaultClient.Do(del.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("cancel of terminal job: status %d, want 409", resp2.StatusCode)
	}

	// Unknown job: 404 on GET, DELETE and the events stream.
	for _, probe := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(ts.URL + "/api/v2/jobs/job-999") },
		func() (*http.Response, error) { return http.Get(ts.URL + "/api/v2/jobs/job-999/events") },
		func() (*http.Response, error) {
			r, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v2/jobs/job-999", nil)
			return http.DefaultClient.Do(r)
		},
	} {
		resp, err := probe()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job probe: status %d, want 404", resp.StatusCode)
		}
	}
	close(runner.release)
	checkLeaks()
}

// TestHTTPV2ErrorPaths: malformed JSON, unknown fields, unknown kinds,
// unknown backends and oversized bodies all reject with clear statuses.
func TestHTTPV2ErrorPaths(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 1, CacheEntries: 4}))
	cases := []struct {
		name, body string
		wantStatus int
		wantSubstr string
	}{
		{"malformed JSON", `{not json`, http.StatusBadRequest, "bad request body"},
		{"unknown field", `{"kind":"dse","dse":{"arch":"ddr3","network":"lenet5"},"bogus":1}`, http.StatusBadRequest, "unknown field"},
		{"unknown kind", `{"kind":"emulate"}`, http.StatusBadRequest, "unknown job kind"},
		{"simulate without payload", `{"kind":"simulate"}`, http.StatusBadRequest, `needs a "simulate" payload`},
		{"unknown backend", `{"kind":"dse","dse":{"arch":"ddr9","network":"lenet5"}}`, http.StatusBadRequest, "ddr9"},
		{"trailing garbage", `{"kind":"dse","dse":{"arch":"ddr3","network":"lenet5"}} extra`, http.StatusBadRequest, "trailing"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/api/v2/jobs", c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.wantStatus, body)
			continue
		}
		var e errorJSON
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, c.wantSubstr) {
			t.Errorf("%s: error body %q lacks %q", c.name, body, c.wantSubstr)
		}
	}

	// Oversized body: just past the 8 MiB v2 cap -> 413.
	huge := fmt.Sprintf(`{"kind":"dse","dse":{"arch":"ddr3","network":"lenet5","schedules":["%s"]}}`,
		strings.Repeat("x", maxBodyBytesV2))
	resp, _ := postJSON(t, ts.URL+"/api/v2/jobs", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized v2 body: status %d, want 413", resp.StatusCode)
	}

	// Bad query parameters on the read endpoints.
	r, err := http.Get(ts.URL + "/api/v2/jobs?limit=-3")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("negative limit: status %d, want 400", r.StatusCode)
	}
}

// TestHTTPV1OversizedBody: the v1 surface enforces its own (1 MiB)
// body cap with a 413.
func TestHTTPV1OversizedBody(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 1, CacheEntries: 4}))
	huge := fmt.Sprintf(`{"arch":"ddr3","network":"lenet5","schedules":["%s"]}`,
		strings.Repeat("x", maxBodyBytes))
	resp, _ := postJSON(t, ts.URL+"/api/v1/dse", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized v1 body: status %d, want 413", resp.StatusCode)
	}
}

// TestHTTPV2List: the listing endpoint filters by kind and state.
func TestHTTPV2List(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	ts := newTestServer(t, svc)
	view := submitJob(t, ts.URL, `{"kind":"characterize","characterize":{"archs":["salp1"]}}`)
	deadline := time.Now().Add(time.Minute)
	for !getJob(t, ts.URL, view.ID).State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, q := range []string{"", "?kind=characterize", "?state=succeeded", "?kind=characterize&state=succeeded&limit=5"} {
		resp, err := http.Get(ts.URL + "/api/v2/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		var list JobsListResponse
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) != 1 || list.Jobs[0].ID != view.ID {
			t.Errorf("list %q returned %+v", q, list.Jobs)
		}
	}
	resp, err := http.Get(ts.URL + "/api/v2/jobs?kind=dse")
	if err != nil {
		t.Fatal(err)
	}
	var list JobsListResponse
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Errorf("kind=dse returned %+v", list.Jobs)
	}
}
