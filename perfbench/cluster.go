package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"p3q/internal/core"
	"p3q/internal/metrics"
	"p3q/internal/obs"
	"p3q/internal/peer"
	"p3q/internal/sim"
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/trace"
	"p3q/internal/wire"
)

// clusterParams sizes the cluster workload: in-process p3qd daemons on
// loopback TCP (peer.TCP on 127.0.0.1, so every message crosses the
// kernel's loopback device), driven by the lead like p3qd's RunLead, with
// a closed loop of clients submitting through the members' gateways.
type clusterParams struct {
	daemons, users int
	meanItems      float64
	workers        int           // engine workers per replica
	clients        int           // closed-loop clients; README.md says why one
	lazyEvery      int           // a lazy cycle after every lazyEvery eager cycles
	warmup         int           // lazy cycles in set-up, so queries have networks to gossip
	eagerPerSecond float64       // eager cycles per second of --seconds
	minEager       int           // eager cycles at least
	drainCycles    int           // bound on the drain after the last submission
	setups         int           // set-ups per run; setup_s is their median
	callTimeout    time.Duration // deadline for every cycle and client call
	kernelStep     int
}

func defaultCluster() clusterParams {
	return clusterParams{
		daemons: 3, users: 600, meanItems: 20, workers: 1, clients: 1,
		lazyEvery: 10, warmup: 8, eagerPerSecond: 54, minEager: 30, drainCycles: 40,
		setups: 3, callTimeout: 20 * time.Second, kernelStep: 10,
	}
}

func (p clusterParams) gen(seed uint64) trace.GenParams {
	return genParams(p.users, p.meanItems, seed)
}

func (p clusterParams) config(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = p.workers
	cfg.Seed = seed
	return cfg
}

// liveCluster is a running cluster and the benchmark's connections to it.
type liveCluster struct {
	p       clusterParams
	daemons []*peer.Daemon
	clients []*peer.Client // query clients, client i on member 1 + i%(daemons-1)
	stats   []*peer.Client // one per daemon, for Stats
}

// loopbackAddrs reserves n free loopback ports.
func loopbackAddrs(n int) ([]string, error) {
	var addrs []string
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startCluster brings the cluster up: daemons started and meshed, warm-up
// lazy cycles run, clients connected. On error it tears down what it
// started.
func startCluster(p clusterParams, seed uint64) (*liveCluster, error) {
	addrs, err := loopbackAddrs(p.daemons)
	if err != nil {
		return nil, err
	}
	c := &liveCluster{p: p}
	fail := func(err error) (*liveCluster, error) {
		c.close()
		return nil, err
	}
	for i := range addrs {
		d, err := peer.New(peer.Config{Index: i, Addrs: addrs, Gen: p.gen(seed), Engine: p.config(seed)}, peer.TCP{})
		if err != nil {
			return fail(err)
		}
		if err := d.Start(); err != nil {
			return fail(err)
		}
		c.daemons = append(c.daemons, d)
	}
	for _, d := range c.daemons {
		if err := d.Connect(); err != nil {
			return fail(err)
		}
	}
	if err := callWithin(p.callTimeout*time.Duration(p.warmup+1), func() error { return c.daemons[0].RunLazyCycles(p.warmup) }); err != nil {
		return fail(fmt.Errorf("warm-up lazy cycles: %w", err))
	}
	dial := func(i int) (*peer.Client, error) { return peer.DialClient(peer.TCP{}, addrs[i]) }
	for i := 0; i < p.clients; i++ {
		cl, err := dial(1 + i%(p.daemons-1))
		if err != nil {
			return fail(err)
		}
		c.clients = append(c.clients, cl)
	}
	for i := range addrs {
		cl, err := dial(i)
		if err != nil {
			return fail(err)
		}
		c.stats = append(c.stats, cl)
	}
	return c, nil
}

// close tears the cluster down, bounded by the call timeout. Closing the
// daemons closes every connection, which releases calls a hang left
// blocked.
func (c *liveCluster) close() error {
	return callWithin(c.p.callTimeout, func() error {
		for _, cl := range append(c.clients, c.stats...) {
			cl.Close()
		}
		for _, d := range c.daemons {
			d.Close()
		}
		return nil
	})
}

// clusterStats sums the daemons' Stats answers.
func (c *liveCluster) clusterStats() ([]*wire.StatsResp, error) {
	var out []*wire.StatsResp
	for i, cl := range c.stats {
		var st *wire.StatsResp
		err := callWithin(c.p.callTimeout, func() error {
			var err error
			st, err = cl.Stats()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("stats from daemon %d: %w", i, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// clusterDriver is what the timed loop calls into; the live cluster
// implements it, and the self-tests substitute a stuck one.
type clusterDriver interface {
	cycle(lazy bool) error
	submit(client int, q trace.Query) (uint64, error)
	status(client int, qid uint64) (*wire.QueryStatusResp, error)
}

func (c *liveCluster) cycle(lazy bool) error {
	if lazy {
		return c.daemons[0].RunLazyCycle()
	}
	return c.daemons[0].RunEagerCycle()
}

func (c *liveCluster) submit(client int, q trace.Query) (uint64, error) {
	return c.clients[client].Submit(q.Querier, q.Tags)
}

func (c *liveCluster) status(client int, qid uint64) (*wire.QueryStatusResp, error) {
	return c.clients[client].Status(qid)
}

// clusterOp is one cluster operation of the timed phase, in order: the
// replay steps a standalone replica through the same sequence.
type clusterOp struct {
	kind byte // 's' submit, 'e' eager cycle, 'l' lazy cycle
	q    trace.Query
	qid  uint64
}

// poll is one Status answer a client saw.
type poll struct {
	at   time.Duration // since the query's Submit began
	used uint32
}

// queryRecord follows one submitted query.
type queryRecord struct {
	q         trace.Query
	qid       uint64
	ok        bool // Submit returned a query ID
	submitted time.Time
	polls     []poll
	done      *wire.QueryStatusResp // the first Status reporting Done, nil until then
}

// drivenRun is what the timed loop observed.
type drivenRun struct {
	ops          []clusterOp
	queries      []*queryRecord
	eager, lazy  samples
	submitS      samples
	statusS      samples
	cyclesFailed int
	// unrun counts the scheduled cycles (eagerCycles eager ones and a lazy
	// one after every lazyEvery-th) that were neither run nor attempted
	// because the loop ended early.
	unrun int
	// stopped is the error that ended the loop early: a call whose
	// deadline fired, or a failed cycle. nil when the schedule completed.
	stopped error
	// outOfTime reports that the run deadline passed before the loop
	// ended; the cluster itself was still answering.
	outOfTime  bool
	wall       time.Duration
	iterations int
}

// drive runs the closed loop: each idle client submits its next query,
// the lead runs an eager cycle (and a lazy one after every lazyEvery),
// then each busy client polls Status once. After eagerCycles cycles no
// new query is submitted and the loop drains, for at most drainCycles
// cycles. Every call runs under the call timeout; when one overruns or a
// cycle fails, the loop ends. When the run deadline passes, the loop ends
// too, drain or not.
func drive(d clusterDriver, p clusterParams, queries []trace.Query, eagerCycles int, tr *tracer, deadline time.Time) *drivenRun {
	run := &drivenRun{}
	scheduled := 0 // scheduled cycles run or attempted
	within := func(fn func() error) error {
		err := callWithin(p.callTimeout, fn)
		if err == errDeadline && run.stopped == nil {
			run.stopped = fmt.Errorf("a call overran its %v deadline", p.callTimeout)
		}
		return err
	}
	busy := make([]*queryRecord, p.clients)
	next := 0
	start := time.Now()
	defer func() {
		run.wall = time.Since(start)
		run.unrun = eagerCycles + eagerCycles/p.lazyEvery - scheduled
	}()
	for c := 0; run.stopped == nil; c++ {
		submitting := c < eagerCycles
		inFlight := 0
		for _, q := range busy {
			if q != nil {
				inFlight++
			}
		}
		if !submitting && (inFlight == 0 || c >= eagerCycles+p.drainCycles) {
			return run
		}
		if !time.Now().Before(deadline) {
			run.outOfTime = true
			return run
		}
		run.iterations++
		root := tr.begin("bench", "cycle")
		for i := range busy {
			if !submitting || busy[i] != nil || run.stopped != nil {
				continue
			}
			rec := &queryRecord{q: queries[next%len(queries)]}
			next++
			run.queries = append(run.queries, rec)
			sp := tr.begin("peer.client", "peer.Client.Submit")
			rec.submitted = time.Now()
			err := within(func() error {
				var err error
				rec.qid, err = d.submit(i, rec.q)
				return err
			})
			run.submitS.add(time.Since(rec.submitted))
			tr.end(sp)
			if err != nil {
				continue
			}
			rec.ok = true
			busy[i] = rec
			run.ops = append(run.ops, clusterOp{kind: 's', q: rec.q, qid: rec.qid})
		}
		kinds := []bool{false}
		if (c+1)%p.lazyEvery == 0 {
			kinds = append(kinds, true)
		}
		for _, lazy := range kinds {
			if run.stopped != nil {
				break
			}
			name, kind := "peer.Daemon.RunEagerCycle", byte('e')
			if lazy {
				name, kind = "peer.Daemon.RunLazyCycle", 'l'
			}
			sp := tr.begin("peer.cycle", name)
			t := time.Now()
			err := within(func() error { return d.cycle(lazy) })
			dur := time.Since(t)
			tr.end(sp)
			if c < eagerCycles {
				scheduled++
			}
			if err != nil {
				run.cyclesFailed++
				if run.stopped == nil {
					// A failed cycle leaves the replicas out of step.
					run.stopped = fmt.Errorf("cycle failed: %w", err)
				}
				break
			}
			if lazy {
				run.lazy.add(dur)
			} else {
				run.eager.add(dur)
			}
			run.ops = append(run.ops, clusterOp{kind: kind})
		}
		for i, rec := range busy {
			if rec == nil || run.stopped != nil {
				continue
			}
			sp := tr.begin("peer.client", "peer.Client.Status")
			t := time.Now()
			var st *wire.QueryStatusResp
			err := within(func() error {
				var err error
				st, err = d.status(i, rec.qid)
				return err
			})
			run.statusS.add(time.Since(t))
			tr.end(sp)
			if err != nil {
				continue
			}
			rec.polls = append(rec.polls, poll{at: time.Since(rec.submitted), used: st.Used})
			if st.Done {
				rec.done = st
				busy[i] = nil
			}
		}
		tr.end(root)
	}
	return run
}

// account counts the loop's operations: every scheduled cycle, which
// fails if it failed or never ran, every drain cycle run or failed, and
// every submitted query, which succeeds only if a Status reported it Done
// (its output is verified separately). Queries still in flight when the
// loop ended, by a deadline or the drain bound, are failures.
func (run *drivenRun) account(r *report) {
	for range run.eager {
		r.op(true)
	}
	for range run.lazy {
		r.op(true)
	}
	for i := 0; i < run.cyclesFailed+run.unrun; i++ {
		r.op(false)
	}
	for _, q := range run.queries {
		if !q.ok || q.done == nil {
			r.op(false)
		}
	}
	if run.stopped != nil {
		r.note("cluster: run ended early: %v (more than one query in flight deadlocks the daemons; see \"Why one client\" in perfbench/README.md)", run.stopped)
	}
	if run.outOfTime {
		r.note("cluster: the run deadline passed with %d scheduled cycles unrun", run.unrun)
	}
}

// replay steps a standalone replica through the timed phase's operations,
// exactly as every daemon steps its own: set-up (Bootstrap plus the
// warm-up lazy cycles), then each submit, eager and lazy cycle in order.
// It is the oracle the Done statuses are checked against, and its
// per-cycle times are what one replica step costs.
type replay struct {
	e           *core.Engine
	reg         *obs.Registry
	runs        map[uint64]*core.QueryRun
	localUsed   map[uint64]int // profiles the querier answered from local storage
	eager, lazy phaseTotals
	issue       samples
	traffic     sim.Traffic // ledger delta over the timed operations
	naive0      uint64
	eagerCaps   []*core.EagerCapture
	lazyCaps    []*core.LazyCapture
	ctrl, gw    []wire.Msg
	mismatches  []string
}

func runReplay(p clusterParams, seed uint64, ops []clusterOp) *replay {
	rp := &replay{runs: map[uint64]*core.QueryRun{}, localUsed: map[uint64]int{}}
	ds := trace.Generate(p.gen(seed))
	rp.e = core.New(ds, p.config(seed))
	rp.e.SetObs(obs.New())
	rp.e.Bootstrap()
	for i := 0; i < p.warmup; i++ {
		rp.e.LazyCycleCaptured()
	}
	rp.reg = obs.New()
	rp.e.SetObs(rp.reg)
	traffic0 := rp.e.Network().Total()
	rp.naive0 = rp.e.NaiveExchangeBytes()
	var seq uint64
	for _, op := range ops {
		switch op.kind {
		case 's':
			start := time.Now()
			qr, cp := rp.e.IssueQueryCaptured(op.q)
			rp.issue.add(time.Since(start))
			if qr == nil || qr.ID != op.qid {
				rp.mismatches = append(rp.mismatches, fmt.Sprintf("query %d: replica issued %v", op.qid, qr))
				continue
			}
			rp.runs[qr.ID] = qr
			rp.localUsed[qr.ID] = len(cp.UsedOwners)
			rp.ctrl = append(rp.ctrl, &wire.QueryIssue{Querier: op.q.Querier, Tags: op.q.Tags}, &wire.QueryIssueAck{OK: true, Qid: qr.ID})
			rp.gw = append(rp.gw, &wire.QuerySubmit{Querier: op.q.Querier, Tags: op.q.Tags}, &wire.QuerySubmitAck{OK: true, Qid: qr.ID})
		case 'e':
			var cp *core.EagerCapture
			rp.eager.timedCycle(rp.e, nil, "", func() { cp = rp.e.EagerCycleCaptured() })
			rp.eagerCaps = append(rp.eagerCaps, cp)
			seq = cp.Seq
		case 'l':
			var cp *core.LazyCapture
			rp.lazy.timedCycle(rp.e, nil, "", func() { cp = rp.e.LazyCycleCaptured() })
			rp.lazyCaps = append(rp.lazyCaps, cp)
			seq = cp.Seq
		}
		if op.kind != 's' {
			kind := wire.StepEager
			if op.kind == 'l' {
				kind = wire.StepLazy
			}
			rp.ctrl = append(rp.ctrl, &wire.Step{Kind: kind, Seq: seq}, &wire.StepAck{Seq: seq},
				&wire.ExchangeGo{Seq: seq}, &wire.ExchangeAck{Seq: seq})
		}
	}
	rp.traffic = rp.e.Network().Total().Since(traffic0)
	return rp
}

func runCluster(p clusterParams, o runOpts) *report {
	r := newReport("cluster")
	var (
		c     *liveCluster
		setup samples
	)
	for i := 0; i < p.setups; i++ {
		if c != nil {
			if err := c.close(); err != nil {
				r.note("cluster: set-up %d teardown: %v", i, err)
			}
			c = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		c, err = startCluster(p, o.seed)
		if err != nil {
			r.check("set-up", err)
			r.note("cluster: set-up failed: %v", err)
			for _, m := range endToEndMetrics {
				r.e2e(m.name, 0, m.unit)
			}
			return r
		}
		setup.add(time.Since(start))
	}

	eagerCycles := scheduleLength(o.seconds, p.eagerPerSecond, p.minEager)
	queries := queryStream(trace.Generate(p.gen(o.seed)), o.seed, eagerCycles*p.clients)
	stats0, statsErr := c.clusterStats()
	gcw := startGC()
	run := drive(c, p, queries, eagerCycles, o.tr, runDeadline(o.seconds))
	cycles := len(run.eager) + len(run.lazy)
	gcw.report(r, p.users, cycles)
	run.account(r)
	var stats1 []*wire.StatsResp
	if statsErr == nil && run.stopped == nil {
		stats1, statsErr = c.clusterStats()
	}
	var divergence uint64
	for _, d := range c.daemons {
		divergence += d.Divergence()
	}
	heap := liveHeapMB()
	if err := c.close(); err != nil {
		r.note("cluster: teardown: %v", err)
	}
	r.check("divergence", checkDivergence(divergence))

	rp := runReplay(p, o.seed, run.ops)
	for _, m := range rp.mismatches {
		r.check("replay", fmt.Errorf("%s", m))
	}
	var queryS, ttfrS samples
	var protoKB float64
	recallMin := 1.0
	done := 0
	for _, q := range run.queries {
		if q.done == nil {
			continue
		}
		if err := checkStatus(q.done, rp.runs[q.qid]); err != nil {
			r.check(fmt.Sprintf("query %d status", q.qid), err)
			continue
		}
		r.op(true)
		done++
		queryS.add(q.polls[len(q.polls)-1].at)
		for _, pl := range q.polls {
			if int(pl.used) > rp.localUsed[q.qid] {
				ttfrS.add(pl.at)
				break
			}
		}
		protoKB += float64(q.done.Forwarded+q.done.Returned+q.done.PartialResults) / 1024
		if rc := float64(q.done.Used) / float64(q.done.Needed); rc < recallMin {
			recallMin = rc
		}
	}

	var wireBytes float64
	planeCalls := map[string]float64{}
	planeKB := map[string]float64{}
	if stats1 != nil {
		for i := range stats1 {
			before := []wire.PlaneStat{stats0[i].Data, stats0[i].Ctrl, stats0[i].Gateway, stats0[i].Served}
			after := []wire.PlaneStat{stats1[i].Data, stats1[i].Ctrl, stats1[i].Gateway, stats1[i].Served}
			for j, plane := range peerPlanes {
				planeCalls[plane] += float64(after[j].Msgs - before[j].Msgs)
				b := float64(after[j].Bytes - before[j].Bytes)
				planeKB[plane] += b / 1024
				wireBytes += b
			}
		}
	} else if statsErr != nil {
		r.note("cluster: no wire totals: %v", statsErr)
	}

	nets := similarity.IdealNetworks(rp.e.Dataset(), rp.e.Config().S)
	var quality []float64
	for u := range nets {
		quality = append(quality, successRatio(rp.e, tagging.UserID(u), nets[u]))
	}

	r.e2e("setup_s", setup.median(), "s")
	// The gated latency is the wire time-to-first-result: most of it is
	// client calls and exchanges, where query_s is mostly the lazy cycle a
	// query overlaps (README.md, "Which figure sees the wire").
	r.e2e("latency_s.p50", ttfrS.median(), "s")
	r.e2e("cycles_per_s", ratio(float64(cycles), run.wall.Seconds()), "1/s")
	r.e2e("live_heap_mb", heap, "MB")
	r.e2e("proto_kb_per_cycle", ratio(wireBytes/1024, float64(cycles)), "KB")
	r.e2e("success_ratio.mean", metrics.Mean(quality), "ratio")
	r.note("cluster: %d daemons on loopback TCP, %d users, %d closed-loop clients, %d eager + %d lazy cycles, %d of %d queries done and verified",
		p.daemons, p.users, p.clients, len(run.eager), len(run.lazy), done, len(run.queries))
	r.note("%s", setup.describe("setup_s"))
	r.note("%s", run.eager.describe("eager_cycle_s"))
	r.note("%s", run.lazy.describe("lazy_cycle_s"))
	r.note("%s", queryS.describe("query_s (Submit to the first Status reporting Done)"))
	r.note("%s", ttfrS.describe("ttfr_s (Submit to the first Status with Used above the local-only count)"))
	r.note("queries_per_s=%.4g wire_kb_per_cycle=%.4g proto_kb_per_query=%.4g recall.min=%.4g divergence=%d",
		ratio(float64(done), run.wall.Seconds()), ratio(wireBytes/1024, float64(cycles)), ratio(protoKB, float64(done)), recallMin, divergence)

	if o.tr != nil {
		rp.eager.report(r, "eager")
		rp.lazy.report(r, "lazy")
		r.layer("core.issue_s", rp.issue.mean(), "s")
		_, _, skew, _ := rp.reg.CommitSkew()
		r.layer("obs.commit_skew_s.mean", skew.Seconds(), "s")
		ledgerReport(r, rp.traffic, cycles)
		r.layer("core.naive_exchange_kb", ratio(float64(rp.e.NaiveExchangeBytes()-rp.naive0)/1024, float64(cycles)), "KB")
		var runs []*core.QueryRun
		for _, q := range run.queries {
			if !q.ok {
				continue
			}
			if qr := rp.runs[q.qid]; qr != nil {
				runs = append(runs, qr)
			}
		}
		queryReport(r, runs)
		reportLazyKernels(r, rp.e, p.kernelStep)
		reportNRA(r, rp.eagerCaps, rp.e.Config().K)

		families := map[string][]wire.Msg{"ctrl": rp.ctrl, "gateway": rp.gw}
		for _, cp := range rp.lazyCaps {
			families["lazy"] = append(families["lazy"], lazyMessages(cp)...)
		}
		for _, cp := range rp.eagerCaps {
			families["eager"] = append(families["eager"], eagerMessages(cp)...)
		}
		for _, q := range run.queries {
			if q.done != nil {
				families["gateway"] = append(families["gateway"], &wire.QueryStatus{Qid: q.qid}, q.done)
			}
		}
		for _, st := range stats1 {
			families["gateway"] = append(families["gateway"], &wire.Stats{}, st)
		}
		if err := reportWire(r, families); err != nil {
			r.check("wire codec", err)
		}

		stepE := ratio(rp.eager.total.Seconds(), float64(rp.eager.cycles)) * float64(p.daemons)
		stepL := ratio(rp.lazy.total.Seconds(), float64(rp.lazy.cycles)) * float64(p.daemons)
		r.layer("peer.step_s", stepE, "s")
		r.layer("peer.exchange_s", run.eager.mean()-stepE, "s")
		r.layer("peer.lazy_step_s", stepL, "s")
		r.layer("peer.lazy_exchange_s", run.lazy.mean()-stepL, "s")
		for _, plane := range peerPlanes {
			r.layer("peer.calls_per_cycle."+plane, ratio(planeCalls[plane], float64(cycles)), "count")
			r.layer("wire.kb_per_cycle."+plane, ratio(planeKB[plane], float64(cycles)), "KB")
		}
		r.layer("peer.submit_s.p50", run.submitS.median(), "s")
		r.layer("peer.status_s.p50", run.statusS.median(), "s")
		r.layer("peer.divergence", float64(divergence), "count")
		o.tr.report(r, run.iterations, traceLayers)
		r.layer("trace.latency_s.p50", ttfrS.median(), "s")
	}
	return r
}
