package main

import (
	"runtime"
	"time"

	"p3q/internal/core"
	"p3q/internal/sim"
)

// traceLayers is the fixed list of span layers every traced run reports a
// self time for; layers a workload does not call read 0.
var traceLayers = []string{"bench", "core", "core.plan", "core.commit", "trace", "peer.cycle", "peer.client"}

// wireFamilies and peerPlanes name the per-family codec timings and the
// per-plane daemon traffic every traced run reports.
var (
	wireFamilies = []string{"ctrl", "lazy", "eager", "gateway"}
	peerPlanes   = []string{"data", "ctrl", "gateway", "served"}
)

// phaseTotals accumulates, per cycle kind, the host time of the cycle
// calls and the plan/commit windows the engine reports for them.
type phaseTotals struct {
	cycles              int
	total, plan, commit time.Duration
}

// timedCycle runs one engine cycle, timing the call and attributing the
// engine's PhaseDurations delta to it.
func (p *phaseTotals) timedCycle(e *core.Engine, tr *tracer, name string, cycle func()) time.Duration {
	plan0, commit0 := e.PhaseDurations()
	sp := tr.begin("core", name)
	start := time.Now()
	cycle()
	d := time.Since(start)
	plan1, commit1 := e.PhaseDurations()
	tr.phases(sp, plan1-plan0, commit1-commit0)
	tr.end(sp)
	p.cycles++
	p.total += d
	p.plan += plan1 - plan0
	p.commit += commit1 - commit0
	return d
}

// report adds core.<kind>.{plan,commit,unexplained}_s per cycle.
func (p *phaseTotals) report(r *report, kind string) {
	n := float64(p.cycles)
	r.layer("core."+kind+".plan_s", ratio(p.plan.Seconds(), n), "s")
	r.layer("core."+kind+".commit_s", ratio(p.commit.Seconds(), n), "s")
	r.layer("core."+kind+".unexplained_s", ratio((p.total-p.plan-p.commit).Seconds(), n), "s")
}

// gcWindow measures the Go runtime's work over the timed phase.
type gcWindow struct{ before runtime.MemStats }

func startGC() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// report adds the gc.* metrics for the window, normalised by node-cycles
// and cycles.
func (w *gcWindow) report(r *report, users, cycles int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc - w.before.TotalAlloc)
	r.layer("gc.alloc_b_per_node_cycle", ratio(alloc, float64(users*cycles)), "B")
	r.layer("gc.pause_s_per_cycle", ratio(float64(after.PauseTotalNs-w.before.PauseTotalNs)/1e9, float64(cycles)), "s")
	r.layer("gc.count", float64(after.NumGC-w.before.NumGC), "count")
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// ledgerReport adds the simulated traffic ledger per cycle, by message
// kind: deterministic work counts that a speed-only change leaves
// identical.
func ledgerReport(r *report, delta sim.Traffic, cycles int) {
	for _, k := range sim.Kinds() {
		r.layer("sim.msgs_per_cycle."+k.String(), ratio(float64(delta.Msgs[k]), float64(cycles)), "count")
		r.layer("sim.kb_per_cycle."+k.String(), ratio(float64(delta.Bytes[k])/1024, float64(cycles)), "KB")
	}
}

// queryReport adds the deterministic per-query work counts of the
// completed queries.
func queryReport(r *report, runs []*core.QueryRun) {
	var cycles, reached, done float64
	for _, qr := range runs {
		if qr.Done() {
			done++
			cycles += float64(qr.Cycles())
			reached += float64(qr.UsersReached())
		}
	}
	r.layer("core.query_cycles.mean", ratio(cycles, done), "count")
	r.layer("core.reached_per_query", ratio(reached, done), "count")
}

// simKindNames lists the traffic ledger's message kinds.
func simKindNames() []string {
	var names []string
	for _, k := range sim.Kinds() {
		names = append(names, k.String())
	}
	return names
}
