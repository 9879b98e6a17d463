// Command perfbench is the repository's benchmark: it runs one named
// workload of the P3Q simulator or of a loopback p3qd cluster, checks that
// the outputs are correct, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 38, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics, each layer's self time and
// the part of the cycle no layer explains. See README.md for the
// workloads and what each metric means.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-lazy --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricSpec declares one reported metric. The lists below are the
// benchmark's contract and match BENCHMARK.json.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the median
}

var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_s.p50", "s", "lower", 0.25},
	{"cycles_per_s", "1/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"proto_kb_per_cycle", "KB", "lower", 0.2},
	{"success_ratio.mean", "ratio", "higher", 0.2},
}

// perLayerMetrics returns the per-layer catalogue. Every traced run
// reports all of them; a layer the workload never calls reads 0.
func perLayerMetrics() []metricSpec {
	var m []metricSpec
	add := func(name, unit, better string) { m = append(m, metricSpec{name: name, unit: unit, better: better}) }
	for _, kind := range []string{"lazy", "eager"} {
		add("core."+kind+".plan_s", "s", "lower")
		add("core."+kind+".commit_s", "s", "lower")
		add("core."+kind+".unexplained_s", "s", "lower")
	}
	add("core.issue_s", "s", "lower")
	add("obs.commit_skew_s.mean", "s", "lower")
	add("gc.alloc_b_per_node_cycle", "B", "lower")
	add("gc.pause_s_per_cycle", "s", "lower")
	add("gc.count", "count", "lower")
	for _, k := range simKindNames() {
		add("sim.msgs_per_cycle."+k, "count", "lower")
		add("sim.kb_per_cycle."+k, "KB", "lower")
	}
	add("core.naive_exchange_kb", "KB", "lower")
	add("core.query_cycles.mean", "count", "lower")
	add("core.reached_per_query", "count", "lower")
	add("topk.scanned_frac", "ratio", "lower")
	add("tagging.actions_on_items_ns", "ns", "lower")
	add("bloom.test_ns", "ns", "lower")
	add("topk.nra_run_us", "us", "lower")
	for _, f := range wireFamilies {
		add("wire.encode_ns."+f, "ns", "lower")
		add("wire.decode_ns."+f, "ns", "lower")
	}
	add("peer.step_s", "s", "lower")
	add("peer.exchange_s", "s", "lower")
	add("peer.lazy_step_s", "s", "lower")
	add("peer.lazy_exchange_s", "s", "lower")
	for _, p := range peerPlanes {
		add("peer.calls_per_cycle."+p, "count", "lower")
		add("wire.kb_per_cycle."+p, "KB", "lower")
	}
	add("peer.submit_s.p50", "s", "lower")
	add("peer.status_s.p50", "s", "lower")
	add("peer.divergence", "count", "lower")
	for _, l := range traceLayers {
		add("self_s."+l, "s", "lower")
	}
	add("trace.spans_per_cycle", "count", "lower")
	add("trace.latency_s.p50", "s", "lower")
	add("trace.overhead_s_per_cycle", "s", "lower")
	return m
}

// spansDir is where a traced run writes its spans, inside the checkout's
// build directory.
const spansDir = ".bench_build/spans"

// runOpts are the arguments every workload receives.
type runOpts struct {
	seed    uint64
	seconds int
	tr      *tracer // nil for an untraced run
}

type workload struct {
	name string
	why  string
	run  func(runOpts) *report
}

var workloads = []workload{
	{"sim-lazy", "10k-user lazy gossip with a mid-run day of profile changes: all work in lazy plan/commit; eager, topk, wire and peer idle", func(o runOpts) *report { return runSimLazy(defaultSimLazy(), o) }},
	{"sim-eager", "5k users on ideal networks, 64 new queries per eager cycle then a drain: all work in eager plan/commit and NRA; lazy cycles and wire idle", func(o runOpts) *report { return runSimEager(defaultSimEager(), o) }},
	{"cluster", "3 p3qd daemons on loopback TCP, 600 users, 1 closed-loop client: the only workload through the wire codec and peer rpc", func(o runOpts) *report { return runCluster(defaultCluster(), o) }},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input generator seed (pass an unused seed for a held-out run)")
	seconds := fs.Int("seconds", 20, "measuring time; sizes the fixed cycle schedule (see README.md)")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds}
	runID := fmt.Sprintf("%s-seed%d-s%d", w.name, *seed, *seconds)
	if *traced == 1 {
		o.tr = newTracer(runID)
	}
	r := w.run(o)
	if o.tr != nil {
		fillIdle(r)
		path, err := o.tr.write(spansDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		r.note("trace: spans written to %s", path)
	}
	if err := r.validate(*traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := r.write(os.Stdout, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// fillIdle reports 0 for every per-layer metric the workload did not
// measure because it never calls that layer, and names them in a note.
func fillIdle(r *report) {
	var idle []string
	for _, m := range perLayerMetrics() {
		if _, ok := r.perLayer[m.name]; !ok {
			r.layer(m.name, 0, m.unit)
			idle = append(idle, m.name)
		}
	}
	if len(idle) > 0 {
		r.note("idle on %s (reported as 0): %s", r.workload, strings.Join(idle, " "))
	}
}

// validate checks that the run reports exactly the catalogue of its kind,
// with the declared units.
func (r *report) validate(traced bool) error {
	specs, got := endToEndMetrics, r.endToEnd
	if traced {
		specs, got = perLayerMetrics(), r.perLayer
	}
	var problems []string
	for _, s := range specs {
		m, ok := got[s.name]
		switch {
		case !ok:
			problems = append(problems, "missing "+s.name)
		case m.Unit != s.unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, want %q", s.name, m.Unit, s.unit))
		}
	}
	for name := range got {
		if !hasSpec(specs, name) {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric catalogue mismatch: %s", strings.Join(problems, "; "))
	}
	return nil
}

func hasSpec(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.name == name {
			return true
		}
	}
	return false
}
