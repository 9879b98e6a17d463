package main

import (
	"runtime"
	"time"

	"p3q/internal/baseline"
	"p3q/internal/core"
	"p3q/internal/metrics"
	"p3q/internal/obs"
	"p3q/internal/randx"
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// simEagerParams sizes the sim-eager workload: eager query gossip only,
// over ideal personal networks, as an open loop in simulated cycles.
type simEagerParams struct {
	users, s, c            int
	meanItems              float64
	bloomBits, bloomHashes int
	workers                int
	arrivalsPerCycle       int     // new queries per eager cycle, whether or not earlier ones finished
	cyclesPerSecond        float64 // arrival cycles per second of --seconds
	minCycles              int     // arrival cycles at least
	drainCycles            int     // bound on the drain phase after the last arrival
	setups                 int
	ratioStep, kernelStep  int
}

func defaultSimEager() simEagerParams {
	return simEagerParams{
		users: 5000, s: 50, c: 10, meanItems: 20,
		bloomBits: 2048, bloomHashes: 6, workers: 2,
		arrivalsPerCycle: 64, cyclesPerSecond: 2.5, minCycles: 20, drainCycles: 60,
		setups: 3, ratioStep: 10, kernelStep: 25,
	}
}

func (p simEagerParams) config(seed uint64) core.Config {
	return simLazyParams{s: p.s, c: p.c, bloomBits: p.bloomBits, bloomHashes: p.bloomHashes, workers: p.workers}.config(seed)
}

// queryStream returns n queries in a seeded order: every user's query
// once per round, each round in a fresh permutation with fresh tags.
func queryStream(ds *trace.Dataset, seed uint64, n int) []trace.Query {
	var out []trace.Query
	for round := uint64(0); len(out) < n; round++ {
		qs := trace.GenerateQueries(ds, seed*1000+round)
		for _, i := range randx.NewSource(seed*1000 + round).Perm(len(qs)) {
			if len(out) == n {
				break
			}
			out = append(out, qs[i])
		}
	}
	return out
}

func runSimEager(p simEagerParams, o runOpts) *report {
	r := newReport("sim-eager")
	arrivalCycles := scheduleLength(o.seconds, p.cyclesPerSecond, p.minCycles)
	var (
		ds      *trace.Dataset
		nets    [][]similarity.Neighbour
		e       *core.Engine
		central *baseline.Centralized
		queries []trace.Query
		setup   samples
	)
	for i := 0; i < p.setups; i++ {
		ds, nets, e, central, queries = nil, nil, nil, nil, nil
		runtime.GC()
		start := time.Now()
		ds = trace.Generate(genParams(p.users, p.meanItems, o.seed))
		nets = similarity.IdealNetworks(ds, p.s)
		e = core.New(ds, p.config(o.seed))
		e.SeedIdealNetworks(nets)
		central = baseline.NewCentralizedWithNets(ds, nets, e.Config().K)
		queries = queryStream(ds, o.seed, arrivalCycles*p.arrivalsPerCycle)
		setup.add(time.Since(start))
	}

	deadline := runDeadline(o.seconds)
	reg := obs.New()
	e.SetObs(reg)
	captureAt := -1
	if o.tr != nil {
		captureAt = arrivalCycles / 2
	}
	var captures []*core.EagerCapture

	var eager phaseTotals
	var cyc, issue samples
	type issued struct {
		qr    *core.QueryRun
		q     trace.Query
		cycle int           // eager cycle the query arrived before
		at    time.Duration // host time since the timed phase began
	}
	var runs []issued
	var cycleEnd []time.Duration // host time at the end of each eager cycle
	traffic0 := e.Network().Total()
	gcw := startGC()
	start := time.Now()
	next := 0
	finished := false // the schedule ended before the run deadline
	for c := 0; time.Now().Before(deadline); c++ {
		arriving := c < arrivalCycles
		if !arriving && (e.AllQueriesDone() || c >= arrivalCycles+p.drainCycles) {
			finished = true
			break
		}
		root := int32(-1)
		if c != captureAt {
			root = o.tr.begin("bench", "cycle")
		}
		if arriving {
			sp := o.tr.begin("core", "core.IssueQuery")
			for j := 0; j < p.arrivalsPerCycle; j++ {
				q := queries[next]
				next++
				at := time.Since(start)
				qr := e.IssueQuery(q)
				issue.add(time.Since(start) - at)
				runs = append(runs, issued{qr, q, c, at})
			}
			o.tr.end(sp)
		}
		if c == captureAt {
			captures = append(captures, e.EagerCycleCaptured())
		} else {
			cyc = append(cyc, eager.timedCycle(e, o.tr, "core.EagerCycle", e.EagerCycle).Seconds())
			o.tr.end(root)
		}
		cycleEnd = append(cycleEnd, time.Since(start))
	}
	wall := time.Since(start)
	cycles := len(cycleEnd)
	gcw.report(r, p.users, cycles)
	traffic := e.Network().Total().Since(traffic0)
	heap := liveHeapMB()

	// Every arrival is one operation: it must be issued, complete within
	// the drain bound, and match the centralized reference exactly.
	var queryS samples
	var recallMin = 1.0
	var protoKB float64
	var completed []*core.QueryRun
	for i := 0; i < arrivalCycles*p.arrivalsPerCycle; i++ {
		if i >= len(runs) || runs[i].qr == nil || !runs[i].qr.Done() {
			r.op(false)
			continue
		}
		run := runs[i]
		ref := central.TopK(run.q)
		if rc := topk.Recall(run.qr.Results(), ref); rc < recallMin {
			recallMin = rc
		}
		if err := checkRecall(run.qr.Results(), ref); err != nil {
			r.check("recall", err)
			continue
		}
		r.op(true)
		completed = append(completed, run.qr)
		protoKB += float64(run.qr.Bytes().Total()) / 1024
		if doneCycle := run.cycle + run.qr.Cycles() - 1; doneCycle < len(cycleEnd) && run.qr.Cycles() > 0 {
			queryS.add(cycleEnd[doneCycle] - run.at)
		}
	}
	var quality []float64
	for u := 0; u < p.users; u += p.ratioStep {
		quality = append(quality, successRatio(e, tagging.UserID(u), nets[u]))
	}
	fp := fingerprint(e)
	r.fingerprint = fp
	// A run the deadline cut short did different work: its unfinished
	// queries have failed already, and its fingerprint is not compared.
	if finished {
		r.check("fingerprint", checkFingerprint(fp, goldens[goldenKey{"sim-eager", p.users, o.seed, o.seconds}]))
	} else {
		r.note("sim-eager: the run deadline passed after %d eager cycles; fingerprint not checked", cycles)
	}

	r.e2e("setup_s", setup.median(), "s")
	r.e2e("latency_s.p50", cyc.median(), "s")
	r.e2e("cycles_per_s", float64(cycles)/wall.Seconds(), "1/s")
	r.e2e("live_heap_mb", heap, "MB")
	r.e2e("proto_kb_per_cycle", ratio(float64(traffic.TotalBytes())/1024, float64(cycles)), "KB")
	r.e2e("success_ratio.mean", metrics.Mean(quality), "ratio")
	r.note("sim-eager: %d users, %d queries over %d arrival cycles, %d eager cycles in all, %d completed correctly",
		p.users, len(runs), arrivalCycles, cycles, len(completed))
	r.note("%s", setup.describe("setup_s"))
	r.note("%s", cyc.describe("eager_cycle_s"))
	r.note("%s", queryS.describe("query_s (host time from issue to the end of the completing cycle)"))
	r.note("queries_per_s=%.4g proto_kb_per_query=%.4g recall.min=%.4g fingerprint=%s",
		float64(len(completed))/wall.Seconds(), ratio(protoKB, float64(len(completed))), recallMin, fp)

	if o.tr != nil {
		eager.report(r, "eager")
		r.layer("core.issue_s", issue.mean(), "s")
		_, _, skew, _ := reg.CommitSkew()
		r.layer("obs.commit_skew_s.mean", skew.Seconds(), "s")
		ledgerReport(r, traffic, cycles)
		queryReport(r, completed)
		reportLazyKernels(r, e, p.kernelStep)
		reportNRA(r, captures, e.Config().K)
		o.tr.report(r, len(cyc), traceLayers)
		r.layer("trace.latency_s.p50", cyc.median(), "s")
	}
	runtime.KeepAlive(e)
	return r
}
