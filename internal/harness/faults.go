package harness

import (
	"fmt"
	"strings"
	"time"

	"dope/internal/apps"
	"dope/internal/core"
	"dope/internal/faults"
)

// faultStages are the injection victims: ferret's middle PAR stages. The
// SEQ head and tail run at extent 1, where FailDegrade has no slot to give
// up, so faulting them would only demonstrate escalation.
var faultStages = []string{"segment", "extract", "index", "rank"}

// policyArms are the failure-policy arms the faults and stalls experiments
// run against their fault-free baseline.
var policyArms = []struct {
	name   string
	policy core.FailurePolicy
}{
	{"fail-stop", core.FailStop},
	{"fail-restart", core.FailRestart},
	{"fail-degrade", core.FailDegrade},
}

// Faults measures throughput under deterministic fault injection for each
// failure policy. The same ferret batch and the same injected-panic
// schedule (1% of stage iterations, fixed seed) run four times: fault-free
// baseline, FailStop, FailRestart, and FailDegrade. FailStop aborts the run
// at the first panic — today's behavior, now opt-out — while the other two
// policies absorb every fault and must stay within 2x of the fault-free
// throughput.
func Faults() (*Table, error) {
	t := &Table{
		ID:     "faults",
		Title:  "REAL RUNTIME: throughput under 1% injected panics, by failure policy",
		Header: []string{"arm", "queries/s", "vs baseline", "injected", "absorbed", "degrades", "outcome"},
		Notes: []string{
			"deterministic injector: 1% of segment/extract/index/rank iterations panic, same schedule in every arm",
			"fail-stop terminates at the first panic; fail-restart and fail-degrade finish the batch within 2x of the fault-free baseline",
			"degrades counts slots retired by fail-degrade (visible to mechanisms as in-place shrinks)",
		},
	}
	baseline, err := faultsArm("baseline", 0, core.FailStop)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, baseline.row(baseline.rate))
	for _, arm := range policyArms {
		res, err := faultsArm(arm.name, 0.01, arm.policy)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, res.row(baseline.rate))
	}
	return t, nil
}

type faultsResult struct {
	name     string
	rate     float64 // queries/s overall
	injected uint64
	absorbed uint64
	degrades uint64
	outcome  string
}

func (r *faultsResult) row(baseRate float64) []string {
	vs := "-"
	if baseRate > 0 && r.rate > 0 && r.name != "baseline" && r.outcome == "completed" {
		vs = fx(r.rate / baseRate)
	}
	return []string{
		r.name, f1(r.rate), vs,
		fmt.Sprint(r.injected), fmt.Sprint(r.absorbed), fmt.Sprint(r.degrades),
		r.outcome,
	}
}

// faultsArm runs one ferret batch with the given injection rate and failure
// policy on the victim stages.
func faultsArm(name string, rate float64, policy core.FailurePolicy) (*faultsResult, error) {
	const nReq = 240
	s := apps.NewServer(nil)
	spec := apps.NewFerret(s, apps.FerretParams{UnitsBase: 120})
	victim := make(map[string]bool, len(faultStages))
	for _, st := range faultStages {
		victim[st] = true
	}
	for i := range spec.Alts[0].Stages {
		st := &spec.Alts[0].Stages[i]
		if victim[st.Name] {
			st.OnFailure = policy
			// The batch finishes in well under a second, so the default
			// budget of 8 per rolling second is what ~10 injected faults
			// are judged against; give the demo headroom so fail-restart
			// shows absorption, not escalation.
			st.FailureBudget = 50
		}
	}
	in := faults.New(rate, 7, faults.WithKind(faults.Panic))
	in.WrapNest(spec, faultStages...)

	e, err := core.New(spec,
		core.WithContexts(liveContexts),
		core.WithInitialConfig(&core.Config{Alt: 0, Extents: []int{1, 6, 6, 6, 6, 1}}),
		core.WithRestartBackoff(200*time.Microsecond, 5*time.Millisecond),
	)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nReq; i++ {
		s.Submit(1.0)
	}
	s.Close()
	runErr := e.Run()

	res := &faultsResult{
		name:     name,
		rate:     s.Meter.Overall(),
		injected: in.Injected(),
		absorbed: e.TaskFailures(),
		outcome:  "completed",
	}
	rep := e.Report().Nest(spec.Name)
	if rep != nil {
		for _, st := range faultStages {
			if sr := rep.Stage(st); sr != nil {
				res.degrades += sr.Retired
			}
		}
	}
	if policy != core.FailDegrade {
		res.degrades = 0 // retirements under restart/stop are drain artifacts
	}
	if runErr != nil {
		if policy == core.FailStop && rate > 0 && strings.Contains(runErr.Error(), "panicked") {
			res.outcome = fmt.Sprintf("terminated (%d/%d served)", s.Meter.Total(), nReq)
			return res, nil
		}
		return nil, fmt.Errorf("faults arm %s: %w", name, runErr)
	}
	if rate > 0 && policy == core.FailStop {
		return nil, fmt.Errorf("faults arm %s: expected the run to terminate at the first panic", name)
	}
	return res, nil
}
