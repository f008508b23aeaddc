package admin

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/core"
	"dope/internal/mechanism"
	"dope/internal/queue"
)

// testExec launches a small pipeline server and returns the executive, the
// work queue, and a completion counter.
func testExec(t *testing.T) (*core.Exec, *queue.Queue[int], *atomic.Int64) {
	t.Helper()
	work := queue.New[int](0)
	out := queue.New[int](4)
	var consumed atomic.Int64
	spec := &core.NestSpec{Name: "svc", Alts: []*core.AltSpec{{
		Name: "pipeline",
		Stages: []core.StageSpec{
			{Name: "produce", Type: core.SEQ},
			{Name: "consume", Type: core.PAR},
		},
		Make: func(item any) (*core.AltInstance, error) {
			out.Reopen()
			return &core.AltInstance{Stages: []core.StageFns{
				{
					Fn: func(w *core.Worker) core.Status {
						if w.Suspending() {
							return core.Suspended
						}
						v, ok, err := work.DequeueWhile(func() bool { return !w.Suspending() }, 0)
						if errors.Is(err, queue.ErrClosed) {
							return core.Finished
						}
						if !ok {
							return core.Suspended
						}
						w.Begin() //dopevet:ignore suspendcheck suspension is observed via the DequeueWhile predicate
						w.End()
						out.Enqueue(v)
						return core.Executing
					},
					Load: func() float64 { return float64(work.Len()) },
					Fini: out.Close,
				},
				{
					Fn: func(w *core.Worker) core.Status {
						_, err := out.Dequeue()
						if err != nil {
							return core.Finished
						}
						w.Begin() //dopevet:ignore suspendcheck,tokenhold drain stage exits via queue close; sleep simulates stage work
						time.Sleep(200 * time.Microsecond)
						consumed.Add(1)
						w.End()
						return core.Executing
					},
					Load: func() float64 { return float64(out.Len()) },
				},
			}}, nil
		},
	}}}
	e, err := core.New(spec, core.WithContexts(8),
		core.WithControlInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return e, work, &consumed
}

func adminServer(t *testing.T, e *core.Exec) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler(e, map[string]MechanismFactory{
		"tbf": func() core.Mechanism { return &mechanism.TBF{Threads: 8} },
		"fdp": func() core.Mechanism { return &mechanism.FDP{Threads: 8} },
	}))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func putJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestReportEndpoint(t *testing.T) {
	e, work, _ := testExec(t)
	defer func() { work.Close(); e.Wait() }()
	srv := adminServer(t, e)

	var rep struct {
		Contexts int `json:"contexts"`
		Root     struct {
			Name   string `json:"name"`
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"root"`
	}
	getJSON(t, srv.URL+"/report", &rep)
	if rep.Contexts != 8 || rep.Root.Name != "svc" || len(rep.Root.Stages) != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestConfigEndpointRoundTrip(t *testing.T) {
	e, work, consumed := testExec(t)
	srv := adminServer(t, e)
	for i := 0; i < 50; i++ {
		work.Enqueue(i)
	}
	resp := putJSON(t, srv.URL+"/config", `{"alt":0,"extents":[1,4]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /config: %d", resp.StatusCode)
	}
	var cfg core.Config
	getJSON(t, srv.URL+"/config", &cfg)
	if cfg.Extents[1] != 4 {
		t.Fatalf("config = %v", &cfg)
	}
	work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if consumed.Load() != 50 {
		t.Fatalf("consumed %d of 50 across admin reconfiguration", consumed.Load())
	}
}

func TestConfigEndpointRejectsGarbage(t *testing.T) {
	e, work, _ := testExec(t)
	defer func() { work.Close(); e.Wait() }()
	srv := adminServer(t, e)
	if resp := putJSON(t, srv.URL+"/config", `{nope`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage config: %d", resp.StatusCode)
	}
}

// TestConfigEndpointRejectsOversizedExtents is the regression test for an
// unbounded PUT: one extent of 200000 used to spawn that many goroutines.
// An extent above the context budget is refused at the root and in any
// child config, and the live configuration stays as it was; an extent of
// exactly the budget is still accepted.
func TestConfigEndpointRejectsOversizedExtents(t *testing.T) {
	e, work, _ := testExec(t)
	defer func() { work.Close(); e.Wait() }()
	srv := adminServer(t, e)
	before := e.CurrentConfig()
	for _, body := range []string{
		`{"alt":0,"extents":[1,200000]}`,
		`{"alt":0,"extents":[1,9]}`,
		`{"alt":0,"extents":[1,2],"children":{"inner":{"alt":0,"extents":[9]}}}`,
		`{"alt":0,"extents":[1,2],"children":{"a":{"children":{"b":{"extents":[1,100000]}}}}}`,
	} {
		if resp := putJSON(t, srv.URL+"/config", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT /config %s: %d, want 400", body, resp.StatusCode)
		}
		if got := e.CurrentConfig(); !got.Equal(before) {
			t.Fatalf("rejected PUT %s changed the config to %v", body, got)
		}
	}
	if resp := putJSON(t, srv.URL+"/config", `{"alt":0,"extents":[1,8]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /config at the context budget: %d, want 200", resp.StatusCode)
	}
}

func TestMechanismEndpoint(t *testing.T) {
	e, work, _ := testExec(t)
	defer func() { work.Close(); e.Wait() }()
	srv := adminServer(t, e)

	var got struct {
		Name      *string  `json:"name"`
		Available []string `json:"available"`
	}
	getJSON(t, srv.URL+"/mechanism", &got)
	if got.Name != nil {
		t.Fatalf("initial mechanism = %v, want null", got.Name)
	}
	if len(got.Available) != 3 { // static, tbf, fdp
		t.Fatalf("available = %v", got.Available)
	}

	if resp := putJSON(t, srv.URL+"/mechanism", `{"name":"tbf"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT tbf: %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/mechanism", &got)
	if got.Name == nil || *got.Name != "TBF" {
		t.Fatalf("mechanism = %v", got.Name)
	}

	if resp := putJSON(t, srv.URL+"/mechanism", `{"name":"static"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT static: %d", resp.StatusCode)
	}
	if e.Mechanism() != nil {
		t.Fatal("static should clear the mechanism")
	}

	if resp := putJSON(t, srv.URL+"/mechanism", `{"name":"zzz"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mechanism: %d", resp.StatusCode)
	}
}

func TestStatsEndpointAndMethodChecks(t *testing.T) {
	e, work, _ := testExec(t)
	defer func() { work.Close(); e.Wait() }()
	srv := adminServer(t, e)

	var stats map[string]any
	getJSON(t, srv.URL+"/stats", &stats)
	if stats["contexts"].(float64) != 8 {
		t.Fatalf("stats = %v", stats)
	}
	// Reconfiguration accounting is exposed: suspensions (whole-nest
	// respawns) and resizes (in-place worker-group changes) separately.
	for _, k := range []string{"reconfigurations", "suspensions", "resizes", "taskFailures"} {
		if _, ok := stats[k]; !ok {
			t.Fatalf("stats missing %q: %v", k, stats)
		}
	}
	// Method checks.
	resp, err := http.Post(srv.URL+"/report", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /report: %d", resp.StatusCode)
	}
}

func TestHealthzHealthy(t *testing.T) {
	e, work, _ := testExec(t)
	defer func() { work.Close(); e.Wait() }()
	srv := adminServer(t, e)

	var got struct {
		Status string `json:"status"`
		Error  any    `json:"error"`
	}
	getJSON(t, srv.URL+"/healthz", &got)
	if got.Status != "ok" || got.Error != nil {
		t.Fatalf("healthz = %+v", got)
	}
	resp, err := http.Post(srv.URL+"/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: %d", resp.StatusCode)
	}
}

func TestHealthzReportsStall(t *testing.T) {
	// A stage whose first invocation wedges forever under FailStop: the
	// watchdog abandons the slot and records the run error, and /healthz
	// flips to 503 with the stage named in the detail.
	gate := make(chan struct{})
	defer close(gate)
	var calls atomic.Int64
	spec := &core.NestSpec{Name: "svc", Alts: []*core.AltSpec{{
		Name: "loop",
		Stages: []core.StageSpec{{
			Name: "wedge", Type: core.PAR,
			Deadline: 20 * time.Millisecond, OnFailure: core.FailStop,
		}},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				Fn: func(w *core.Worker) core.Status {
					if w.Begin() == core.Suspended {
						return core.Suspended
					}
					if calls.Add(1) == 1 {
						//dopevet:ignore tokenhold the test wedges this worker on purpose to trip /healthz
						<-gate // wedged: only abandonment frees the goroutine's slot
					} else {
						//dopevet:ignore tokenhold simulated work stands in for a CPU-bound body
						time.Sleep(100 * time.Microsecond)
					}
					return w.End()
				},
			}}}, nil
		},
	}}}
	e, err := core.New(spec, core.WithContexts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	srv := adminServer(t, e)

	deadline := time.Now().Add(5 * time.Second)
	for e.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Err() == nil {
		t.Fatal("stall never escalated to a run error")
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz: %d, want 503", resp.StatusCode)
	}
	var got struct {
		Status     string `json:"status"`
		Error      string `json:"error"`
		TaskStalls uint64 `json:"taskStalls"`
		Zombies    int    `json:"zombies"`
		Stages     []struct {
			Nest    string `json:"nest"`
			Stage   string `json:"stage"`
			Stalls  uint64 `json:"stalls"`
			Zombies int    `json:"zombies"`
		} `json:"stages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "failed" || !strings.Contains(got.Error, "stalled") {
		t.Fatalf("healthz = %+v", got)
	}
	if strings.Contains(got.Error, "goroutine ") {
		t.Fatalf("healthz error should omit the goroutine dump: %.120q", got.Error)
	}
	if got.TaskStalls == 0 || got.Zombies == 0 {
		t.Fatalf("healthz counters = %+v", got)
	}
	found := false
	for _, st := range got.Stages {
		if st.Stage == "wedge" && st.Stalls > 0 && st.Zombies > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("wedged stage missing from detail: %+v", got.Stages)
	}
	e.Stop()
	if werr := e.Wait(); werr == nil || !strings.Contains(werr.Error(), "stalled") {
		t.Fatalf("Wait = %v, want the stall error", werr)
	}
}

func TestNewServerTimeouts(t *testing.T) {
	srv := NewServer("localhost:0", http.NotFoundHandler())
	if srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("NewServer lacks timeouts: %+v", srv)
	}
}

func TestAdminDrivesLiveAdaptation(t *testing.T) {
	// End to end: switch the live system to TBF over HTTP and watch it
	// reconfigure.
	e, work, consumed := testExec(t)
	srv := adminServer(t, e)
	for i := 0; i < 400; i++ {
		work.Enqueue(i)
	}
	putJSON(t, srv.URL+"/mechanism", `{"name":"tbf"}`)
	deadline := time.Now().Add(3 * time.Second)
	for e.Reconfigurations() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if e.Reconfigurations() == 0 {
		t.Fatal("admin-installed mechanism never reconfigured")
	}
	work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if consumed.Load() != 400 {
		t.Fatalf("consumed %d of 400", consumed.Load())
	}
}

func TestIndexEndpoint(t *testing.T) {
	e, work, _ := testExec(t)
	defer func() { work.Close(); e.Wait() }()
	srv := adminServer(t, e)
	var got struct {
		Endpoints  []string `json:"endpoints"`
		Mechanisms []string `json:"mechanisms"`
	}
	getJSON(t, srv.URL+"/", &got)
	if len(got.Endpoints) != 9 || len(got.Mechanisms) != 3 {
		t.Fatalf("index = %+v", got)
	}
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}
}

// TestWhatIfEndpoint drives work through the pipeline until the live
// what-if profile turns valid, then checks its shape: one report per nest,
// finite ranked payoffs, and the PAR consume stage carrying the only
// nonzero DoP payoff (the SEQ producer cannot accept contexts).
func TestWhatIfEndpoint(t *testing.T) {
	e, work, consumed := testExec(t)
	defer func() { work.Close(); e.Wait() }()
	srv := adminServer(t, e)

	for i := 0; i < 64; i++ {
		work.Enqueue(i)
	}
	waitFor(t, func() bool { return consumed.Load() >= 64 })

	type whatIfBody struct {
		Root  string `json:"root"`
		Nests map[string]struct {
			Valid      bool   `json:"Valid"`
			Reason     string `json:"Reason"`
			Bottleneck string `json:"Bottleneck"`
			Stages     []struct {
				Name      string  `json:"Name"`
				PayoffDoP float64 `json:"PayoffDoP"`
				Demand    float64 `json:"Demand"`
			} `json:"Stages"`
		} `json:"nests"`
	}
	var got whatIfBody
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, srv.URL+"/whatif", &got)
		if rep, ok := got.Nests["svc"]; ok && rep.Valid {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("what-if never turned valid: %+v", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got.Root != "svc" {
		t.Fatalf("root = %q, want svc", got.Root)
	}
	rep := got.Nests["svc"]
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %+v", rep.Stages)
	}
	for _, st := range rep.Stages {
		if st.Name == "produce" && st.PayoffDoP != 0 {
			t.Fatalf("SEQ stage has DoP payoff %v", st.PayoffDoP)
		}
		if st.Demand < 0 {
			t.Fatalf("negative demand for %s", st.Name)
		}
	}

	resp, err := http.Post(srv.URL+"/whatif", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /whatif = %d, want 405", resp.StatusCode)
	}
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
