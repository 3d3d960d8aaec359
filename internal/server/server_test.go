package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waitfree"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
)

// newTestServer boots a server plus an httptest front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	if opts.ProgressInterval == 0 {
		opts.ProgressInterval = 5 * time.Millisecond
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, ts
}

// TestNewRejectsNegativeProgressInterval pins that a negative stats
// cadence refuses the daemon up front: every job's engine would reject it.
func TestNewRejectsNegativeProgressInterval(t *testing.T) {
	if _, err := New(Options{ProgressInterval: -time.Second}); err == nil {
		t.Fatal("New accepted a negative ProgressInterval")
	}
}

func submitJob(t *testing.T, ts *httptest.Server, body string) *JobView {
	t.Helper()
	v, status := postJob(t, ts, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	return v
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*JobView, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, resp.StatusCode
	}
	v := &JobView{}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.State == "" {
		t.Fatalf("submit returned incomplete view: %+v", v)
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) *JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", id, resp.StatusCode)
	}
	v := &JobView{}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitJob polls until cond is satisfied or the deadline passes.
func waitJob(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, cond func(*JobView) bool) *JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, ts, id)
		if cond(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: timed out waiting; last view %+v", id, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func terminal(v *JobView) bool { return v.State.Terminal() }

// TestSubmitPollAllKinds drives every pipeline kind end to end over the
// wire: submit, poll to terminal, check verdict and report kind.
func TestSubmitPollAllKinds(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	cases := []struct {
		name   string
		body   string
		wantOK bool
	}{
		{"consensus", `{"api":"v1","kind":"consensus","protocol":"cas","explore":{"memoize":true}}`, true},
		{"bound", `{"api":"v1","kind":"bound","protocol":"queue"}`, true},
		{"elimination", `{"api":"v1","kind":"elimination","protocol":"tas"}`, true},
		// The zoo holds unbounded types whose triviality searches truncate:
		// classification completes but OK() refuses the inconclusive report.
		{"classification", `{"api":"v1","kind":"classification"}`, false},
		{"synthesis", `{"api":"v1","kind":"synthesis","objects":"cas","synthesis":{"depth":1,"symmetric":true,"budget":50000000}}`, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			v := submitJob(t, ts, c.body)
			v = waitJob(t, ts, v.ID, 2*time.Minute, terminal)
			if v.State != JobDone {
				t.Fatalf("state %s, error %+v", v.State, v.Error)
			}
			if v.OK == nil || *v.OK != c.wantOK {
				t.Errorf("ok = %v, want %v", v.OK, c.wantOK)
			}
			rep, err := waitfree.DecodeReport(v.Report)
			if err != nil {
				t.Fatalf("served report does not decode: %v", err)
			}
			if string(rep.Kind) != c.name {
				t.Errorf("report kind %q, want %q", rep.Kind, c.name)
			}
			if rep.Elapsed != 0 {
				t.Errorf("served report is not canonical: elapsed %v", rep.Elapsed)
			}
		})
	}
}

// TestWireRejects pins the submission-validation surface: every
// malformed body is refused at the door with a taxonomy code.
func TestWireRejects(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"missing api", `{"kind":"consensus","protocol":"cas"}`, 400, "bad_request"},
		{"wrong api", `{"api":"v2","kind":"consensus","protocol":"cas"}`, 400, "bad_request"},
		{"unknown kind", `{"api":"v1","kind":"mystery"}`, 400, "bad_request"},
		{"unknown protocol", `{"api":"v1","kind":"consensus","protocol":"nope"}`, 400, "unknown_protocol"},
		{"unknown field", `{"api":"v1","kind":"consensus","protocol":"cas","bogus":1}`, 400, "bad_request"},
		{"missing protocol", `{"api":"v1","kind":"consensus"}`, 400, "bad_request"},
		{"fixed procs mismatch", `{"api":"v1","kind":"consensus","protocol":"casregister3","procs":2}`, 400, "bad_request"},
		{"classification with protocol", `{"api":"v1","kind":"classification","protocol":"cas"}`, 400, "bad_request"},
		{"consensus with objects", `{"api":"v1","kind":"consensus","protocol":"cas","objects":"cas"}`, 400, "bad_request"},
		{"consensus with max_k", `{"api":"v1","kind":"consensus","protocol":"cas","max_k":2}`, 400, "bad_request"},
		{"bound with values", `{"api":"v1","kind":"bound","protocol":"cas","values":3}`, 400, "bad_request"},
		{"elimination with synthesis", `{"api":"v1","kind":"elimination","protocol":"tas","synthesis":{"depth":1}}`, 400, "bad_request"},
		{"synthesis with protocol", `{"api":"v1","kind":"synthesis","objects":"cas","protocol":"cas"}`, 400, "bad_request"},
		{"classification with procs", `{"api":"v1","kind":"classification","procs":2}`, 400, "bad_request"},
		{"synthesis without objects", `{"api":"v1","kind":"synthesis"}`, 400, "bad_request"},
		{"unknown object set", `{"api":"v1","kind":"synthesis","objects":"nope"}`, 400, "unknown_protocol"},
		{"bad symmetry", `{"api":"v1","kind":"consensus","protocol":"cas","explore":{"symmetry":"sideways"}}`, 400, "bad_request"},
		{"negative timeout", `{"api":"v1","kind":"consensus","protocol":"cas","timeout_ms":-1}`, 400, "bad_request"},
		{"recoveries without crashes", `{"api":"v1","kind":"consensus","protocol":"cas","explore":{"faults":{"max_crashes":0,"max_recoveries":1}}}`, 400, "bad_request"},
		{"recoveries under crash-stop", `{"api":"v1","kind":"consensus","protocol":"cas","explore":{"faults":{"max_crashes":1,"max_recoveries":1}}}`, 400, "bad_request"},
		{"bad fault mode", `{"api":"v1","kind":"consensus","protocol":"cas","explore":{"faults":{"max_crashes":1,"mode":"byzantine"}}}`, 400, "bad_request"},
		{"bad fault mode without crashes", `{"api":"v1","kind":"consensus","protocol":"cas","explore":{"faults":{"max_crashes":0,"mode":"byzantine"}}}`, 400, "bad_request"},
		{"negative max_crashes", `{"api":"v1","kind":"consensus","protocol":"cas","explore":{"faults":{"max_crashes":-1}}}`, 400, "bad_request"},
		{"negative max_recoveries", `{"api":"v1","kind":"consensus","protocol":"cas","explore":{"faults":{"max_crashes":0,"max_recoveries":-1}}}`, 400, "bad_request"},
		{"classification with faults", `{"api":"v1","kind":"classification","explore":{"faults":{"max_crashes":1}}}`, 400, "bad_request"},
		{"classification with memoize", `{"api":"v1","kind":"classification","explore":{"memoize":true}}`, 400, "bad_request"},
		{"classification with max_nodes", `{"api":"v1","kind":"classification","explore":{"max_nodes":5}}`, 400, "bad_request"},
		{"classification with stall_after_ms", `{"api":"v1","kind":"classification","explore":{"stall_after_ms":100}}`, 400, "bad_request"},
		{"procs above the tree ceiling", `{"api":"v1","kind":"consensus","protocol":"cas","procs":21}`, 400, "bad_request"},
		{"values above the tree ceiling", `{"api":"v1","kind":"consensus","protocol":"cas","values":1025}`, 400, "bad_request"},
		{"bound procs above the tree ceiling", `{"api":"v1","kind":"bound","protocol":"sticky","procs":21}`, 400, "bad_request"},
		{"one value", `{"api":"v1","kind":"consensus","protocol":"cas","values":1}`, 400, "bad_request"},
		{"negative values", `{"api":"v1","kind":"consensus","protocol":"cas","values":-3}`, 400, "bad_request"},
		{"procs far above the tree ceiling", `{"api":"v1","kind":"consensus","protocol":"cas","procs":1000000000}`, 400, "bad_request"},
		{"not json", `not json`, 400, "bad_request"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error *WireError `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: decode error body: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.wantStatus)
		}
		if body.Error == nil || body.Error.Code != c.wantCode {
			t.Errorf("%s: error %+v, want code %q", c.name, body.Error, c.wantCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestCompileClassificationOptions pins the explore options a
// classification request may still carry: parallelism, which the zoo
// classification reads, and max_depth and symmetry, which clients vary to
// draw cache keys.
func TestCompileClassificationOptions(t *testing.T) {
	req, err := Compile(&WireRequest{API: APIVersion, Kind: "classification",
		Explore: WireExplore{Parallelism: 2, MaxDepth: 1001, Symmetry: "off"}})
	if err != nil {
		t.Fatal(err)
	}
	if req.Explore.Parallelism != 2 || req.Explore.MaxDepth != 1001 {
		t.Fatalf("compiled %+v", req.Explore)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	Type string
	Data string
}

// readSSE consumes the event stream until a done event or the deadline.
func readSSE(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) []sseEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content-type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.Type != "":
			events = append(events, cur)
			if cur.Type == "done" {
				return events
			}
			cur = sseEvent{}
		}
	}
	t.Fatalf("stream ended without a done event (%d events: %+v)", len(events), events)
	return nil
}

// TestSSEStreamAndCancel subscribes to a long job's event stream, sees
// live progress, cancels mid-run over the API, and receives the terminal
// done event carrying the cancelled state.
func TestSSEStreamAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: t.TempDir(), CheckpointEvery: 20 * time.Millisecond})
	// ~seconds of work: plenty of time to observe it mid-flight.
	v := submitJob(t, ts, `{"api":"v1","kind":"consensus","protocol":"sticky","procs":5,"explore":{"symmetry":"off"}}`)

	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, ts, v.ID, time.Minute) }()

	// Cancel once the engine has demonstrably made progress (a durable
	// checkpoint autosave landed).
	waitJob(t, ts, v.ID, 30*time.Second, func(v *JobView) bool { return v.HasCheckpoint })
	resp, err := newRequest(ts, "DELETE", "/v1/jobs/"+v.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	final := waitJob(t, ts, v.ID, 30*time.Second, terminal)
	if final.State != JobCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	events := <-done
	if events[0].Type != "state" {
		t.Errorf("first event %q, want state", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != "done" || !strings.Contains(last.Data, `"cancelled"`) {
		t.Errorf("last event %+v, want done/cancelled", last)
	}

	// Cancelling a terminal job conflicts.
	resp, err = newRequest(ts, "DELETE", "/v1/jobs/"+v.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel: status %d, want 409", resp.StatusCode)
	}

	// Subscribing to a terminal job yields the snapshot and done at once.
	events = readSSE(t, ts, v.ID, 10*time.Second)
	if len(events) != 2 || events[0].Type != "state" || events[1].Type != "done" {
		t.Errorf("terminal subscribe events: %+v", events)
	}
}

func newRequest(ts *httptest.Server, method, path string) (*http.Response, error) {
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// TestPoolSaturationAndDrain pins the bounded-admission contract: a full
// queue refuses with queue_full, a draining server with draining, and
// drain returns the running job to queued.
func TestPoolSaturationAndDrain(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	slow := `{"api":"v1","kind":"consensus","protocol":"sticky","procs":5,"explore":{"symmetry":"off"}}`

	running := submitJob(t, ts, slow)
	waitJob(t, ts, running.ID, 30*time.Second, func(v *JobView) bool { return v.State == JobRunning })
	queued := submitJob(t, ts, slow) // fills the depth-1 queue

	if _, status := postJob(t, ts, slow); status != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d, want 503", status)
	}

	// A queued job cancels instantly, freeing its slot.
	resp, err := newRequest(ts, "DELETE", "/v1/jobs/"+queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := getJob(t, ts, queued.ID); got.State != JobCancelled {
		t.Fatalf("queued cancel: state %s", got.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, status := postJob(t, ts, slow); status != http.StatusServiceUnavailable {
		t.Errorf("draining submit: status %d, want 503", status)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["status"] != "draining" {
		t.Errorf("healthz status %v, want draining", hz["status"])
	}
	// The running job went back to queued (cancelled by drain, not lost).
	if got := getJob(t, ts, running.ID); got.State != JobQueued {
		t.Errorf("drained job state %s, want queued", got.State)
	}
}

// TestDrainResumeByteIdentical is the acceptance path: a consensus job
// survives a daemon drain + restart, resumes from its durable checkpoint,
// and its final report is byte-identical to a direct waitfree.Check run.
func TestDrainResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, DataDir: dir, CheckpointEvery: 20 * time.Millisecond}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())

	v := submitJob(t, ts, `{"api":"v1","kind":"consensus","protocol":"sticky","procs":5,"explore":{"symmetry":"off"}}`)
	waitJob(t, ts, v.ID, 30*time.Second, func(v *JobView) bool {
		return v.State == JobRunning && v.HasCheckpoint
	})

	// Drain: the running job checkpoints and returns to the durable queue.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// "Restart" the daemon over the same data dir.
	srv2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if got := getJob(t, ts2, v.ID); got.State != JobQueued || !got.HasCheckpoint {
		t.Fatalf("restarted job: state %s, has_checkpoint %v", got.State, got.HasCheckpoint)
	}
	srv2.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv2.Drain(ctx)
	}()

	final := waitJob(t, ts2, v.ID, 2*time.Minute, terminal)
	if final.State != JobDone {
		t.Fatalf("resumed job: state %s, error %+v", final.State, final.Error)
	}
	if final.Resumes < 1 {
		t.Errorf("resumes = %d, want >= 1 (the job should have resumed, not restarted)", final.Resumes)
	}

	// The reference: the same request run directly through the library.
	im, err := waitfree.BuildProtocol("sticky", 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: im,
		Explore:        waitfree.ExploreOptions{Symmetry: waitfree.SymmetryOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Canonicalize()
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Report, want) {
		t.Errorf("resumed report is not byte-identical to the direct run.\nserved: %s\ndirect: %s", final.Report, want)
	}
}

// TestCacheHitByteIdentical submits the same job twice against a cached
// server: the repeat is served from the result cache with byte-identical
// report bytes.
func TestCacheHitByteIdentical(t *testing.T) {
	cache, err := waitfree.OpenCache(waitfree.CacheOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, Cache: cache})
	body := `{"api":"v1","kind":"consensus","protocol":"cas","procs":3,"explore":{"memoize":true}}`

	first := submitJob(t, ts, body)
	first = waitJob(t, ts, first.ID, 2*time.Minute, terminal)
	if first.State != JobDone {
		t.Fatalf("first: state %s, error %+v", first.State, first.Error)
	}
	second := submitJob(t, ts, body)
	second = waitJob(t, ts, second.ID, 2*time.Minute, terminal)
	if second.State != JobDone {
		t.Fatalf("second: state %s, error %+v", second.State, second.Error)
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Errorf("cache hit is not byte-identical.\nfirst:  %s\nsecond: %s", first.Report, second.Report)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("cache saw no hits: %+v", st)
	}

	// The stats endpoint surfaces the cache counters.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsView
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cache == nil || stats.Cache.Hits == 0 {
		t.Errorf("stats cache block missing hits: %+v", stats.Cache)
	}
	if stats.Done < 2 {
		t.Errorf("stats done = %d, want >= 2", stats.Done)
	}
}

// TestProtocolsEndpoint pins discovery: the wire registry names resolve.
func TestProtocolsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Protocols []waitfree.ProtocolInfo  `json:"protocols"`
		Objects   []waitfree.ObjectSetInfo `json:"objects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Protocols) != len(waitfree.Protocols()) {
		t.Errorf("served %d protocols, registry has %d", len(body.Protocols), len(waitfree.Protocols()))
	}
	if len(body.Objects) != len(waitfree.ObjectSets()) {
		t.Errorf("served %d object sets, registry has %d", len(body.Objects), len(waitfree.ObjectSets()))
	}
	for _, p := range body.Protocols {
		if p.Name == "" || p.Description == "" {
			t.Errorf("incomplete protocol entry: %+v", p)
		}
	}
}

// TestVerdictsOnTheJobSurface pins how the two failure shapes land: a
// consensus check of an incorrect protocol completes (done, ok=false,
// violation in the report), while a bound check of the same protocol
// fails with the not_wait_free taxonomy code.
func TestVerdictsOnTheJobSurface(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	v := submitJob(t, ts, `{"api":"v1","kind":"consensus","protocol":"naive"}`)
	v = waitJob(t, ts, v.ID, 2*time.Minute, terminal)
	if v.State != JobDone || v.OK == nil || *v.OK {
		t.Fatalf("consensus(naive): state %s ok %v, want done/false", v.State, v.OK)
	}
	if !strings.Contains(string(v.Report), `"violation"`) {
		t.Error("consensus(naive): report carries no violation")
	}

	b := submitJob(t, ts, `{"api":"v1","kind":"bound","protocol":"naive"}`)
	b = waitJob(t, ts, b.ID, 2*time.Minute, terminal)
	if b.State != JobFailed {
		t.Fatalf("bound(naive): state %s, want failed", b.State)
	}
	if b.Error == nil || b.Error.Code != "not_wait_free" {
		t.Errorf("bound(naive): error %+v, want code not_wait_free", b.Error)
	}
}

// TestCrashRecoveryJobOverTheWire drives the crash-recovery fault model
// end to end through the versioned wire API: the register-only naive
// protocol under a one-crash/one-recovery budget must finish done with a
// crash/recover-annotated counterexample carrying the
// decision-changed-after-recovery violation kind — and a repeat
// submission is served from the result cache byte-identically.
func TestCrashRecoveryJobOverTheWire(t *testing.T) {
	cache, err := waitfree.OpenCache(waitfree.CacheOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, Cache: cache})
	body := `{"api":"v1","kind":"consensus","protocol":"naive","explore":{"memoize":true,"faults":{"max_crashes":1,"mode":"crash-recovery","max_recoveries":1}}}`

	v := submitJob(t, ts, body)
	v = waitJob(t, ts, v.ID, 2*time.Minute, terminal)
	if v.State != JobDone || v.OK == nil || *v.OK {
		t.Fatalf("state %s ok %v, error %+v; want done/false", v.State, v.OK, v.Error)
	}
	rep := string(v.Report)
	if !strings.Contains(rep, `"decision-changed-after-recovery"`) {
		t.Errorf("report carries no decision-changed-after-recovery violation:\n%s", rep)
	}
	if !strings.Contains(rep, `"crash":true`) || !strings.Contains(rep, `"recover":true`) {
		t.Errorf("counterexample schedule lacks crash/recover annotations:\n%s", rep)
	}

	second := submitJob(t, ts, body)
	second = waitJob(t, ts, second.ID, 2*time.Minute, terminal)
	if second.State != JobDone {
		t.Fatalf("repeat: state %s, error %+v", second.State, second.Error)
	}
	if !bytes.Equal(v.Report, second.Report) {
		t.Errorf("cached crash-recovery report is not byte-identical.\nfirst:  %s\nsecond: %s", v.Report, second.Report)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("cache saw no hits: %+v", st)
	}
}

// TestJobDeadline pins the wire timeout_ms contract: a resumable job
// whose deadline expires finishes done-but-partial with its checkpoint
// retained; a request above Options.MaxTimeout is clamped, not rejected;
// and a non-resumable kind fails with the deadline taxonomy code.
func TestJobDeadline(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers:         1,
		DataDir:         t.TempDir(),
		CheckpointEvery: 10 * time.Millisecond,
		MaxTimeout:      300 * time.Millisecond,
	})
	// ~seconds of uninterrupted work, so any prompt termination below is
	// the deadline machinery, not natural completion.
	slow := `"kind":"consensus","protocol":"sticky","procs":5,"explore":{"symmetry":"off"}`

	check := func(name string, v *JobView) {
		t.Helper()
		v = waitJob(t, ts, v.ID, 30*time.Second, terminal)
		if v.State != JobDone || v.OK == nil || *v.OK {
			t.Fatalf("%s: state %s ok %v, error %+v; want done/false", name, v.State, v.OK, v.Error)
		}
		if !strings.Contains(string(v.Report), `"partial":true`) {
			t.Errorf("%s: expired job's report is not partial: %s", name, v.Report)
		}
		if !v.HasCheckpoint {
			t.Errorf("%s: expired job retains no checkpoint", name)
		}
	}
	// An explicit deadline under the cap expires as requested.
	check("explicit", submitJob(t, ts, `{"api":"v1",`+slow+`,"timeout_ms":250}`))
	// An hour-long request is clamped to MaxTimeout: without the clamp the
	// job would either run for real (test timeout) or complete ok=true.
	check("clamped", submitJob(t, ts, `{"api":"v1",`+slow+`,"timeout_ms":3600000}`))

	// Elimination cannot resume, so an expired deadline is inconclusive:
	// the job fails with the library's inconclusive taxonomy code rather
	// than degrading to a partial report. sticky at 4 processes takes
	// ~0.5s to eliminate; a 2-process elimination finishes in about 1ms,
	// so it could complete before its 1ms deadline.
	e := submitJob(t, ts, `{"api":"v1","kind":"elimination","protocol":"sticky","procs":4,"timeout_ms":1}`)
	e = waitJob(t, ts, e.ID, 30*time.Second, terminal)
	if e.State != JobFailed {
		t.Fatalf("elimination: state %s, want failed", e.State)
	}
	if e.Error == nil || e.Error.Code != "inconclusive" {
		t.Errorf("elimination: error %+v, want code inconclusive", e.Error)
	}
}

// TestCrashRecoveryJobFileTruncationSweep is the torn-write acceptance
// test for the durable job store: a crash-recovery job's .wfjob envelope
// (wire request plus checkpoint) truncated at EVERY byte offset must
// either salvage to the full manifest or be skipped at startup — daemon
// boot never fails, and a salvaged job is always the intact original
// (the manifest is a single checksummed record, so there is no partial
// salvage to mis-resume from).
func TestCrashRecoveryJobFileTruncationSweep(t *testing.T) {
	body := json.RawMessage(`{"api":"v1","kind":"consensus","protocol":"sticky","procs":4,"explore":{"faults":{"max_crashes":1,"mode":"crash-recovery","max_recoveries":1}}}`)
	wire, _, err := DecodeWire(body)
	if err != nil {
		t.Fatal(err)
	}
	cp := &explore.Checkpoint{
		Version: explore.CheckpointVersion,
		Impl:    "sticky",
		Procs:   4,
		Values:  2,
		Roots:   16,
		Faults:  faults.Model{MaxCrashes: 1, Mode: faults.CrashRecovery, MaxRecoveries: 1},
		Trees: []explore.TreeResult{{
			Mask: 0, Nodes: 10, Leaves: 2, Depth: 3,
			MaxAccess: []int{1, 1, 1, 1}, ProcSteps: []int{1, 1, 1, 1},
		}},
	}
	cpBlob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	src, err := newStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{
		id: "0123456789abcdef", wire: wire, raw: body,
		state: JobQueued, chkpoint: cpBlob, resumes: 1,
		created: time.Now(), hub: newHub(),
	}
	if err := src.save(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src.path(j.id))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, j.id+jobFileExt)
	discard := func(string, ...any) {}
	var salvaged, skipped int
	for off := 0; off <= len(raw); off++ {
		if err := os.WriteFile(path, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := New(Options{Workers: 1, DataDir: dir, Logf: discard})
		if err != nil {
			t.Fatalf("offset %d: daemon startup failed: %v", off, err)
		}
		got, ok := srv.job(j.id)
		if !ok {
			if off == len(raw) {
				t.Fatal("the untruncated envelope did not load")
			}
			skipped++
			continue
		}
		salvaged++
		v := got.view()
		if v.State != JobQueued || !v.HasCheckpoint || v.Kind != "consensus" {
			t.Fatalf("offset %d: salvaged job is not the original: state %s, has_checkpoint %v, kind %s",
				off, v.State, v.HasCheckpoint, v.Kind)
		}
	}
	if salvaged == 0 || skipped == 0 {
		t.Errorf("sweep exercised only one path: salvaged %d, skipped %d", salvaged, skipped)
	}
}
