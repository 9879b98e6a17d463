package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"p3q/internal/core"
	"p3q/internal/similarity"
	"p3q/internal/topk"
	"p3q/internal/trace"
	"p3q/internal/wire"
)

// Tiny sizes: every workload end to end in a few seconds.

func tinySimLazy() simLazyParams {
	p := defaultSimLazy()
	p.users, p.minCycles, p.cyclesPerSecond, p.setups, p.kernelStep = 300, 6, 0, 2, 10
	return p
}

func tinySimEager() simEagerParams {
	p := defaultSimEager()
	p.users, p.arrivalsPerCycle, p.minCycles, p.cyclesPerSecond, p.setups, p.kernelStep = 300, 8, 4, 0, 2, 10
	return p
}

func tinyCluster() clusterParams {
	p := defaultCluster()
	p.users, p.clients, p.warmup, p.minEager, p.eagerPerSecond, p.setups = 90, 1, 4, 6, 0, 1
	p.lazyEvery, p.drainCycles, p.callTimeout = 3, 20, 10*time.Second
	return p
}

func TestWorkloadsTiny(t *testing.T) {
	cases := []struct {
		name string
		run  func(runOpts) *report
	}{
		{"sim-lazy", func(o runOpts) *report { return runSimLazy(tinySimLazy(), o) }},
		{"sim-eager", func(o runOpts) *report { return runSimEager(tinySimEager(), o) }},
		{"cluster", func(o runOpts) *report { return runCluster(tinyCluster(), o) }},
	}
	for _, c := range cases {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 3, seconds: 1}
			if traced {
				o.tr = newTracer("test")
			}
			r := c.run(o)
			if traced {
				fillIdle(r)
			}
			if err := r.validate(traced); err != nil {
				t.Errorf("%s traced=%v: %v", c.name, traced, err)
			}
			if !r.correct() || r.failed != 0 || r.attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d, checks %v, notes %v",
					c.name, traced, r.correct(), r.failed, r.attempted, r.checkFailures, r.notes)
			}
			for name, m := range r.endToEnd {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", c.name, name, m.Value)
				}
			}
		}
	}
}

// TestFingerprintGolden pins the tiny sim workloads' behaviour
// fingerprints, so the recorded-value check is itself exercised.
func TestFingerprintGolden(t *testing.T) {
	for _, w := range []struct {
		name  string
		users int
		run   func(runOpts) *report
	}{
		{"sim-lazy", tinySimLazy().users, func(o runOpts) *report { return runSimLazy(tinySimLazy(), o) }},
		{"sim-eager", tinySimEager().users, func(o runOpts) *report { return runSimEager(tinySimEager(), o) }},
	} {
		key := goldenKey{w.name, w.users, 3, 1}
		got := w.run(runOpts{seed: 3, seconds: 1}).fingerprint
		if want, ok := goldens[key]; !ok || got != want {
			t.Errorf("%+v: fingerprint %s, recorded %q", key, got, want)
		}
	}
}

// TestChecksCatchWrongReferences feeds every correctness check a
// deliberately wrong reference and requires it to fail, and the true
// reference and requires it to pass.
func TestChecksCatchWrongReferences(t *testing.T) {
	if err := checkFingerprint("aa", "aa"); err != nil {
		t.Errorf("matching fingerprint rejected: %v", err)
	}
	if checkFingerprint("aa", "bb") == nil {
		t.Error("wrong fingerprint accepted")
	}

	gp := trace.DefaultGenParams(120)
	gp.Seed = 5
	ds := trace.Generate(gp)
	cfg := core.DefaultConfig()
	cfg.S, cfg.Workers = 20, 1
	nets := similarity.IdealNetworks(ds, cfg.S)
	e := core.New(ds, cfg)
	e.SeedIdealNetworks(nets)
	queries := trace.GenerateQueries(ds, 9)
	a, b := e.IssueQuery(queries[0]), e.IssueQuery(queries[1])
	e.RunEager(60)
	if !a.Done() || !b.Done() {
		t.Fatal("queries did not complete")
	}
	if err := checkRecall(a.Results(), a.Results()); err != nil {
		t.Errorf("true reference rejected: %v", err)
	}
	if checkRecall(a.Results(), []topk.Entry{{Item: 1 << 30, Score: 1}}) == nil {
		t.Error("recall check accepted a wrong reference")
	}

	st := statusOf(a)
	if err := checkStatus(st, a); err != nil {
		t.Errorf("true replica run rejected: %v", err)
	}
	if checkStatus(st, b) == nil {
		t.Error("status check accepted another query's run as reference")
	}
	bad := statusOf(a)
	bad.Maintenance++
	if checkStatus(bad, a) == nil {
		t.Error("status check accepted wrong per-query bytes")
	}
	bad = statusOf(a)
	bad.Used--
	if checkStatus(bad, a) == nil {
		t.Error("status check accepted incomplete recall")
	}

	if err := checkDivergence(0); err != nil {
		t.Errorf("zero divergence rejected: %v", err)
	}
	if checkDivergence(1) == nil {
		t.Error("divergence accepted")
	}

	if err := checkImproved(0.5, 0.1); err != nil {
		t.Errorf("improved networks rejected: %v", err)
	}
	if checkImproved(0.5, 0.6) == nil || checkImproved(0.5, 0.5) == nil {
		t.Error("network quality check accepted networks no better than Bootstrap's")
	}
}

func statusOf(qr *core.QueryRun) *wire.QueryStatusResp {
	b := qr.Bytes()
	return &wire.QueryStatusResp{
		Known: true, Done: qr.Done(),
		Used: uint32(qr.ProfilesUsed()), Needed: uint32(qr.ProfilesNeeded()),
		Forwarded: b.Forwarded, Returned: b.Returned, PartialResults: b.PartialResults, Maintenance: b.Maintenance,
		Results: append([]topk.Entry(nil), qr.Results()...),
	}
}

// stuckCluster answers submits and statuses but never finishes its
// second cycle, like a deadlocked lead.
type stuckCluster struct {
	cycles  int
	qid     uint64
	release chan struct{}
}

func (s *stuckCluster) cycle(bool) error {
	s.cycles++
	if s.cycles == 2 {
		<-s.release
	}
	return nil
}

func (s *stuckCluster) submit(int, trace.Query) (uint64, error) {
	s.qid++
	return s.qid, nil
}

func (s *stuckCluster) status(int, uint64) (*wire.QueryStatusResp, error) {
	return &wire.QueryStatusResp{Known: true}, nil
}

// TestDeadlineTurnsStuckCycleIntoFailures proves a cycle that never
// returns ends the run within its deadline, with the stuck cycle and
// every query in flight counted as failed.
func TestDeadlineTurnsStuckCycleIntoFailures(t *testing.T) {
	p := defaultCluster()
	p.clients, p.callTimeout = 4, 200*time.Millisecond
	stuck := &stuckCluster{release: make(chan struct{})}
	defer close(stuck.release)
	queries := []trace.Query{{Querier: 1}, {Querier: 2}}
	start := time.Now()
	run := drive(stuck, p, queries, 50, nil, time.Now().Add(time.Minute))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stuck cycle held the run for %v", elapsed)
	}
	if run.stopped == nil {
		t.Fatal("run did not record the overrun deadline")
	}
	r := newReport("cluster")
	run.account(r)
	// Of the 50 eager and 5 lazy cycles scheduled, one completed, the
	// second is stuck and 53 never ran; all four queries were in flight.
	if r.attempted != 55+4 || r.failed != 54+4 {
		t.Errorf("attempted %d failed %d, want 59 and 58", r.attempted, r.failed)
	}
}

// slowCluster takes a fixed time per cycle and never finishes a query.
type slowCluster struct {
	stuckCluster
	cycleTime time.Duration
}

func (s *slowCluster) cycle(bool) error {
	time.Sleep(s.cycleTime)
	return nil
}

// TestRunDeadlineCountsUnrunSchedule proves that when the run deadline
// passes, the loop ends without draining and every scheduled cycle it did
// not run counts as failed, like the queries left in flight.
func TestRunDeadlineCountsUnrunSchedule(t *testing.T) {
	p := defaultCluster()
	p.clients, p.drainCycles = 2, 1000
	slow := &slowCluster{cycleTime: 20 * time.Millisecond}
	queries := []trace.Query{{Querier: 1}, {Querier: 2}}
	start := time.Now()
	run := drive(slow, p, queries, 50, nil, time.Now().Add(150*time.Millisecond))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("the loop ran %v past a 150ms run deadline", elapsed)
	}
	if !run.outOfTime || run.stopped != nil {
		t.Fatalf("outOfTime=%v stopped=%v, want the run deadline only", run.outOfTime, run.stopped)
	}
	ran := len(run.eager) + len(run.lazy)
	if ran == 0 || ran >= 55 || run.unrun != 55-ran {
		t.Fatalf("%d cycles ran and %d unrun, want them to add up to the 55 scheduled", ran, run.unrun)
	}
	r := newReport("cluster")
	run.account(r)
	if r.attempted != 55+len(run.queries) || r.failed != run.unrun+len(run.queries) {
		t.Errorf("attempted %d failed %d, want %d and %d", r.attempted, r.failed, 55+len(run.queries), run.unrun+len(run.queries))
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, benchmark %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		want := endToEndMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
	layers := perLayerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		want := layers[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer("test")
	root := tr.begin("bench", "cycle")
	c := tr.begin("core", "core.LazyCycle")
	tr.phases(c, 2*time.Millisecond, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	tr.end(c)
	tr.end(root)
	self := tr.selfTimes()
	whole := tr.spans[root].End - tr.spans[root].Start
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if d := sum - whole; d > 1e-9 || d < -1e-9 {
		t.Errorf("self times sum to %v, root span lasts %v", sum, whole)
	}
	if self["core.plan"] != 0.002 || self["core.commit"] != 0.001 {
		t.Errorf("phase self times %v", self)
	}
	if self["core"] < 0.001 {
		t.Errorf("core self time %v excludes the phases but not the rest", self["core"])
	}
}
