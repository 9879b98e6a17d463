package main

import (
	"math"
	"runtime"
	"time"

	"p3q/internal/core"
	"p3q/internal/metrics"
	"p3q/internal/obs"
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// simLazyParams sizes the sim-lazy workload: lazy gossip only, from
// Bootstrap, with the paper's simulated day of profile changes applied
// halfway through the schedule.
type simLazyParams struct {
	users, s, c            int
	meanItems              float64
	bloomBits, bloomHashes int
	workers                int
	cyclesPerSecond        float64 // schedule length per second of --seconds
	minCycles              int     // enough samples for a median
	setups                 int     // set-ups per run; setup_s is their median
	ratioStep              int     // success ratio over every ratioStep-th user
	kernelStep             int     // kernel inputs from every kernelStep-th node
}

func defaultSimLazy() simLazyParams {
	return simLazyParams{
		users: 10000, s: 50, c: 10, meanItems: 20,
		bloomBits: 2048, bloomHashes: 6, workers: 2,
		cyclesPerSecond: 2, minCycles: 20, setups: 3,
		ratioStep: 20, kernelStep: 50,
	}
}

func (p simLazyParams) config(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.S, cfg.C = p.s, p.c
	cfg.BloomBits, cfg.BloomHashes = p.bloomBits, p.bloomHashes
	cfg.Workers = p.workers
	cfg.Seed = seed
	return cfg
}

func genParams(users int, meanItems float64, seed uint64) trace.GenParams {
	gp := trace.DefaultGenParams(users)
	gp.MeanItems = meanItems
	gp.Seed = seed
	return gp
}

// scheduleLength turns --seconds into a fixed cycle count. The schedule
// never depends on measured time, so two commits run identical work.
func scheduleLength(seconds int, perSecond float64, min int) int {
	n := int(math.Round(float64(seconds) * perSecond))
	if n < min {
		n = min
	}
	return n
}

// runDeadline bounds a run's timed phase: work left when it passes counts
// as failed instead of stalling the benchmark.
func runDeadline(seconds int) time.Time {
	d := time.Duration(seconds)*4*time.Second + 30*time.Second
	if d > 120*time.Second {
		d = 120 * time.Second
	}
	return time.Now().Add(d)
}

func runSimLazy(p simLazyParams, o runOpts) *report {
	r := newReport("sim-lazy")
	var (
		ds      *trace.Dataset
		e       *core.Engine
		changes []trace.Change
		setup   samples
	)
	for i := 0; i < p.setups; i++ {
		ds, e, changes = nil, nil, nil
		runtime.GC()
		start := time.Now()
		ds = trace.Generate(genParams(p.users, p.meanItems, o.seed))
		e = core.New(ds, p.config(o.seed))
		e.Bootstrap()
		cp := trace.DefaultChangeParams()
		cp.Seed += o.seed
		changes = trace.GenerateChanges(ds, cp)
		setup.add(time.Since(start))
	}

	cycles := scheduleLength(o.seconds, p.cyclesPerSecond, p.minCycles)
	changeAt := cycles / 2
	quality0 := lazySuccessRatio(e, ds, p.s, p.ratioStep)
	deadline := runDeadline(o.seconds)
	reg := obs.New()
	e.SetObs(reg)

	var lazy phaseTotals
	var cyc samples
	added := 0
	traffic0, naive0 := e.Network().Total(), e.NaiveExchangeBytes()
	gcw := startGC()
	start := time.Now()
	ran := 0
	for c := 0; c < cycles && time.Now().Before(deadline); c++ {
		root := o.tr.begin("bench", "cycle")
		if c == changeAt {
			sp := o.tr.begin("trace", "trace.ApplyChanges")
			added = trace.ApplyChanges(ds, changes)
			o.tr.end(sp)
		}
		cyc = append(cyc, lazy.timedCycle(e, o.tr, "core.LazyCycle", e.LazyCycle).Seconds())
		o.tr.end(root)
		ran++
	}
	wall := time.Since(start)
	gcw.report(r, p.users, ran)
	for c := 0; c < cycles; c++ {
		r.op(c < ran)
	}
	traffic := e.Network().Total().Since(traffic0)
	heap := liveHeapMB()

	quality := lazySuccessRatio(e, ds, p.s, p.ratioStep)
	fp := fingerprint(e)
	r.fingerprint = fp
	// A run the deadline cut short did different work: its unrun cycles
	// have failed already, and its outputs are not compared.
	if ran == cycles {
		r.check("fingerprint", checkFingerprint(fp, goldens[goldenKey{"sim-lazy", p.users, o.seed, o.seconds}]))
		r.check("network quality", checkImproved(quality, quality0))
	} else {
		r.note("sim-lazy: the run deadline passed after %d of %d cycles; outputs not checked", ran, cycles)
	}

	r.e2e("setup_s", setup.median(), "s")
	r.e2e("latency_s.p50", cyc.median(), "s")
	r.e2e("cycles_per_s", float64(ran)/wall.Seconds(), "1/s")
	r.e2e("live_heap_mb", heap, "MB")
	r.e2e("proto_kb_per_cycle", ratio(float64(traffic.TotalBytes())/1024, float64(ran)), "KB")
	r.e2e("success_ratio.mean", quality, "ratio")
	r.note("sim-lazy: %d users, %d of %d lazy cycles, change-set of %d users (%d actions) before cycle %d",
		p.users, ran, cycles, len(changes), added, changeAt)
	r.note("%s", setup.describe("setup_s"))
	r.note("%s", cyc.describe("lazy_cycle_s"))
	r.note("lazy_cycles_per_s=%.4g success_ratio.mean=%.4g (%.4g after Bootstrap) fingerprint=%s", float64(ran)/wall.Seconds(), quality, quality0, fp)

	if o.tr != nil {
		lazy.report(r, "lazy")
		_, _, skew, _ := reg.CommitSkew()
		r.layer("obs.commit_skew_s.mean", skew.Seconds(), "s")
		ledgerReport(r, traffic, ran)
		r.layer("core.naive_exchange_kb", ratio(float64(e.NaiveExchangeBytes()-naive0)/1024, float64(ran)), "KB")
		reportLazyKernels(r, e, p.kernelStep)
		o.tr.report(r, ran, traceLayers)
		r.layer("trace.latency_s.p50", cyc.median(), "s")
	}
	runtime.KeepAlive(e)
	return r
}

// lazySuccessRatio is the Figure 2 network quality: the mean success
// ratio of the sampled users' personal networks against their ideal
// networks, computed from the dataset as it stands (after the change-set).
func lazySuccessRatio(e *core.Engine, ds *trace.Dataset, s, step int) float64 {
	ix := similarity.Build(ds)
	var vals []float64
	for u := 0; u < e.Users(); u += step {
		vals = append(vals, successRatio(e, tagging.UserID(u), ix.TopNeighbours(ds.Profiles[u], s)))
	}
	return metrics.Mean(vals)
}

func successRatio(e *core.Engine, u tagging.UserID, ideal []similarity.Neighbour) float64 {
	scores := map[tagging.UserID]int{}
	for _, en := range e.Node(u).PersonalNetwork().Ranking() {
		scores[en.ID] = en.Score
	}
	return metrics.SuccessRatio(scores, ideal)
}
