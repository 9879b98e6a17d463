// Command benchjson converts the text output of `go test -bench` into a
// machine-readable JSON document, so CI can archive benchmark results as
// BENCH_*.json artifacts and the repository can track its performance
// trajectory (e.g. BenchmarkLazyConvergence5k and BenchmarkEagerBurst5k
// per worker count) across commits.
//
// Usage:
//
//	go test -run='^$' -bench=. ./... | benchjson -o BENCH_abc123.json
//	benchjson < bench.out                     # JSON to stdout
//	benchjson -compare old.json new.json      # flag regressions
//
// Each benchmark result line becomes one record carrying the benchmark
// name, the iteration count, and every reported metric (ns/op, B/op,
// allocs/op, and custom b.ReportMetric units) keyed by unit. Context lines
// (goos, goarch, pkg, cpu) annotate the records that follow them.
//
// The -compare mode diffs two previously archived artifacts: it prints the
// ns/op and allocs/op deltas of every benchmark present in both, and exits
// non-zero when a tracked benchmark (by default the
// BenchmarkLazyConvergence5k, BenchmarkEagerBurst5k,
// BenchmarkLazyConvergence100k, BenchmarkNRARun and BenchmarkPlanIntegrate
// families, override with -track) slowed down or allocated more by more
// than -threshold (default 10%), or allocated at all when the old side did
// not. The allocs/op
// gate guards the pooled-plan engine: allocation counts are deterministic
// where timings are noisy, so an allocation regression is meaningful even
// at -benchtime=1x. CI runs the comparison against the previous commit's
// artifact when one exists.
//
// The -history mode renders the benchmark trajectory across any number of
// archived artifacts: one row per (artifact, tracked benchmark) with
// ns/op, allocs/op, B/op, the alloc-B/node budget metric, and the
// plan-ns/op / commit-ns/op phase split the engine benches report, as a
// markdown table (or CSV with -csv). Rows follow the argument
// order, so pass artifacts oldest first — BENCH_<sha>.json names are not
// chronological, so expand globs by download/file time, e.g.:
//
//	benchjson -history BENCH_aaa.json BENCH_bbb.json BENCH_ccc.json
//	benchjson -history -csv $(ls -tr BENCH_*.json) > trajectory.csv
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// defaultTracked is the benchmark families whose regressions fail the
// -compare mode: the two 5000-user engine benches the ROADMAP tracks
// across commits, the 100k scaling probe the scheduled bench workflow
// runs, and two kernels whose allocs/op is deterministic: the querier-side
// NRA merge (internal/topk) and the lazy planner's step-1/2 integration
// (internal/core), which allocates nothing.
const defaultTracked = "BenchmarkLazyConvergence5k,BenchmarkEagerBurst5k,BenchmarkLazyConvergence100k,BenchmarkNRARun,BenchmarkPlanIntegrate"

func main() {
	out := flag.String("o", "", "output file (default: stdout)")
	compare := flag.Bool("compare", false, "compare two archived artifacts: benchjson -compare old.json new.json")
	history := flag.Bool("history", false, "render the tracked benches' ns/op and plan/commit phase split across archived artifacts (oldest first): benchjson -history a.json b.json ...")
	csv := flag.Bool("csv", false, "emit CSV instead of a markdown table in -history mode")
	threshold := flag.Float64("threshold", 0.10, "ns/op slowdown fraction that counts as a regression in -compare mode")
	track := flag.String("track", defaultTracked, "comma-separated benchmark name prefixes tracked by -compare and -history")
	flag.Parse()

	if *history {
		// An empty series is a normal cold start (a fresh repository, expired
		// CI artifacts, a glob that matched nothing), not a usage error:
		// render the friendly note instead of failing the job-summary step.
		if err := historyTable(flag.Args(), splitTracked(*track), *csv, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two artifacts: old.json new.json")
			os.Exit(2)
		}
		oldRep, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		newRep, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		if n := compareReports(oldRep, newRep, splitTracked(*track), *threshold, os.Stdout); n > 0 {
			os.Exit(1)
		}
		return
	}

	report, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// loadReport reads one archived BENCH_*.json artifact.
func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep := &Report{}
	if err := json.NewDecoder(f).Decode(rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// splitTracked parses the -track flag into non-empty prefixes.
func splitTracked(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// benchKey identifies a benchmark across artifacts. The trailing
// -GOMAXPROCS suffix is stripped so artifacts from machines reporting
// different core counts still line up.
func benchKey(r Result) string {
	name := r.Name
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return r.Pkg + " " + name
}

// compareReports prints the ns/op and allocs/op deltas of every benchmark
// present in both reports and returns the number of tracked regressions:
// tracked benchmarks (matched by name prefix) whose ns/op OR allocs/op
// grew by more than threshold. Allocation counts are deterministic where
// timings are noisy, so the allocs/op gate holds even on the short
// per-commit runs; benchmarks without memory metrics on either side (older
// artifacts, runs without -benchmem) are gated on ns/op alone. Benchmarks
// missing from either side are skipped — a renamed or new bench is not a
// regression.
func compareReports(oldRep, newRep *Report, tracked []string, threshold float64, w io.Writer) int {
	// First occurrence wins on both sides: artifacts holding several -cpu
	// variants of one benchmark (whose -P suffixes strip to the same key)
	// must resolve to the same variant in both reports.
	oldM := make(map[string]map[string]float64, len(oldRep.Results))
	for _, r := range oldRep.Results {
		k := benchKey(r)
		if ns, ok := r.Metrics["ns/op"]; ok && ns > 0 {
			if _, dup := oldM[k]; !dup {
				oldM[k] = r.Metrics
			}
		}
	}
	isTracked := func(name string) bool {
		short := name[strings.LastIndex(name, " ")+1:]
		for _, p := range tracked {
			if strings.HasPrefix(short, p) {
				return true
			}
		}
		return false
	}
	regressions := 0
	keys := make([]string, 0, len(newRep.Results))
	newM := make(map[string]map[string]float64, len(newRep.Results))
	for _, r := range newRep.Results {
		k := benchKey(r)
		if _, ok := r.Metrics["ns/op"]; ok {
			if _, dup := newM[k]; !dup {
				keys = append(keys, k)
				newM[k] = r.Metrics
			}
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		old, ok := oldM[k]
		if !ok {
			continue
		}
		nw := newM[k]
		nsDelta := (nw["ns/op"] - old["ns/op"]) / old["ns/op"]
		line := fmt.Sprintf("%-60s %14.0f -> %14.0f ns/op  %+6.1f%%", k, old["ns/op"], nw["ns/op"], 100*nsDelta)
		allocDelta, haveAllocs := 0.0, false
		if oa, oaok := old["allocs/op"]; oaok {
			if na, naok := nw["allocs/op"]; naok {
				haveAllocs = true
				switch {
				case oa > 0:
					allocDelta = (na - oa) / oa
				case na > 0:
					allocDelta = math.Inf(1) // an allocation-free bench started allocating
				}
				line += fmt.Sprintf("  %10.0f -> %10.0f allocs/op  %+6.1f%%", oa, na, 100*allocDelta)
			}
		}
		mark := ""
		if isTracked(k) {
			mark = " [tracked]"
			if nsDelta > threshold || (haveAllocs && allocDelta > threshold) {
				mark = " [REGRESSION]"
				regressions++
			}
		}
		fmt.Fprintln(w, line+mark)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d tracked benchmark(s) regressed beyond %.0f%%\n", regressions, 100*threshold)
	}
	return regressions
}

// historyRow is one (artifact, benchmark) point of the trajectory table.
type historyRow struct {
	artifact  string
	benchmark string
	ns        float64
	allocs    float64 // allocs/op, 0 when the run lacked -benchmem
	bytes     float64 // B/op, likewise
	allocNode float64 // alloc-B/node, 0 when the benchmark does not report it
	plan      float64 // plan-ns/op, likewise
	commit    float64 // commit-ns/op, likewise
}

// historyTable renders the tracked benchmarks' ns/op, memory metrics and
// plan/commit phase split across the given artifacts (in argument order —
// pass oldest first) as a markdown table, or CSV when csv is set. This is
// the benchmark-trajectory view of the ROADMAP: the plan and commit
// columns come from the custom metrics the 5k engine benches report, so
// the historical Amdahl limit (the commit phase share) stays visible
// across commits, and the allocs/op and alloc-B/node columns track the
// pooled engine's allocation budget the same way.
func historyTable(paths []string, tracked []string, csv bool, w io.Writer) error {
	isTracked := func(name string) bool {
		for _, p := range tracked {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	var rows []historyRow
	for _, path := range paths {
		rep, err := loadReport(path)
		if err != nil {
			return err
		}
		seen := map[string]bool{}
		for _, r := range rep.Results {
			key := benchKey(r)
			name := key[strings.LastIndex(key, " ")+1:]
			if seen[key] || !isTracked(name) {
				continue
			}
			seen[key] = true
			ns, ok := r.Metrics["ns/op"]
			if !ok {
				continue
			}
			rows = append(rows, historyRow{
				artifact:  filepath.Base(path),
				benchmark: name,
				ns:        ns,
				allocs:    r.Metrics["allocs/op"],
				bytes:     r.Metrics["B/op"],
				allocNode: r.Metrics["alloc-B/node"],
				plan:      r.Metrics["plan-ns/op"],
				commit:    r.Metrics["commit-ns/op"],
			})
		}
	}
	if len(rows) == 0 {
		// Degrade gracefully: an empty or all-untracked series happens on
		// every fresh repository and whenever CI artifacts expired. The note
		// renders fine in both CSV consumers and the markdown job summary.
		if len(paths) == 0 {
			fmt.Fprintln(w, "no archived benchmark artifacts yet; the trajectory starts with the next successful run")
		} else {
			fmt.Fprintf(w, "no tracked benchmark (%s) in the %d given artifact(s); nothing to tabulate yet\n", strings.Join(tracked, ", "), len(paths))
		}
		return nil
	}

	// Optional metrics render as blanks when absent (older artifacts, runs
	// without -benchmem), keeping the columns aligned across a mixed series.
	opt := func(v float64) string {
		if v == 0 {
			return ""
		}
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	planShare := func(r historyRow) string {
		if r.plan == 0 || r.plan+r.commit == 0 {
			return ""
		}
		return fmt.Sprintf("%.1f%%", 100*r.plan/(r.plan+r.commit))
	}
	if csv {
		fmt.Fprintln(w, "artifact,benchmark,ns/op,allocs/op,B/op,alloc-B/node,plan-ns/op,commit-ns/op,plan share")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%s,%.0f,%s,%s,%s,%s,%s,%s\n",
				r.artifact, r.benchmark, r.ns, opt(r.allocs), opt(r.bytes), opt(r.allocNode),
				opt(r.plan), opt(r.commit), planShare(r))
		}
		return nil
	}
	fmt.Fprintln(w, "| artifact | benchmark | ns/op | allocs/op | B/op | alloc-B/node | plan-ns/op | commit-ns/op | plan share |")
	fmt.Fprintln(w, "| --- | --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: |")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %.0f | %s | %s | %s | %s | %s | %s |\n",
			r.artifact, r.benchmark, r.ns, opt(r.allocs), opt(r.bytes), opt(r.allocNode),
			opt(r.plan), opt(r.commit), planShare(r))
	}
	return nil
}

// parse reads `go test -bench` text output and extracts every benchmark
// result line. Unrecognized lines are ignored, so interleaved test output
// does not break the conversion.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Results: []Result{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if res, ok := parseResult(line); ok {
			res.Pkg = pkg
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, sc.Err()
}

// parseResult parses one benchmark result line of the form
//
//	BenchmarkName[/sub]-P  iterations  value unit  [value unit]...
//
// and returns ok=false for anything else.
func parseResult(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	// The remainder is (value, unit) pairs.
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Result{}, false
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[rest[i+1]] = v
	}
	return res, true
}
