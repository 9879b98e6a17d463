package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: p3q
cpu: AMD EPYC 7B13
BenchmarkLazyConvergence5k/workers=1-8         	       3	 412345678 ns/op
BenchmarkLazyConvergence5k/workers=8-8         	      10	 112345678 ns/op	     512 B/op	       4 allocs/op
BenchmarkEagerBurst5k/workers=8-8              	       5	 212345678 ns/op
BenchmarkAblationThreeStepExchange-8           	       2	 912345678 ns/op	      42.5 actualB/user/cycle	     99.5 naiveB/user/cycle
--- BENCH: BenchmarkSomething
    some interleaved log line
PASS
ok  	p3q	12.345s
`

func TestParseSample(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "AMD EPYC 7B13" {
		t.Fatalf("context lines misparsed: %+v", rep)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(rep.Results))
	}
	first := rep.Results[0]
	if first.Name != "BenchmarkLazyConvergence5k/workers=1-8" || first.Pkg != "p3q" {
		t.Fatalf("first result misparsed: %+v", first)
	}
	if first.Iterations != 3 || first.Metrics["ns/op"] != 412345678 {
		t.Fatalf("first result values misparsed: %+v", first)
	}
	second := rep.Results[1]
	if second.Metrics["B/op"] != 512 || second.Metrics["allocs/op"] != 4 {
		t.Fatalf("memory metrics misparsed: %+v", second)
	}
	last := rep.Results[3]
	if last.Metrics["actualB/user/cycle"] != 42.5 || last.Metrics["naiveB/user/cycle"] != 99.5 {
		t.Fatalf("custom metrics misparsed: %+v", last)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	rep, err := parse(strings.NewReader("hello\nBenchmarkBroken 12\nok p3q 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("noise produced %d results", len(rep.Results))
	}
}

// mkReport builds a one-package report with the given (name, ns/op) pairs.
func mkReport(ns map[string]float64) *Report {
	rep := &Report{}
	for name, v := range ns {
		rep.Results = append(rep.Results, Result{
			Name: name, Pkg: "p3q", Iterations: 1, Metrics: map[string]float64{"ns/op": v},
		})
	}
	return rep
}

func TestCompareFlagsTrackedRegression(t *testing.T) {
	oldRep := mkReport(map[string]float64{
		"BenchmarkLazyConvergence5k/workers=1-8": 100,
		"BenchmarkEagerBurst5k/workers=1-8":      200,
		"BenchmarkFig2Convergence-8":             300,
	})
	newRep := mkReport(map[string]float64{
		"BenchmarkLazyConvergence5k/workers=1-4": 125, // +25%: regression (suffix stripped)
		"BenchmarkEagerBurst5k/workers=1-4":      205, // +2.5%: within threshold
		"BenchmarkFig2Convergence-4":             900, // +200% but untracked
	})
	var out strings.Builder
	n := compareReports(oldRep, newRep, splitTracked(defaultTracked), 0.10, &out)
	if n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkLazyConvergence5k/workers=1") ||
		!strings.Contains(out.String(), "[REGRESSION]") {
		t.Fatalf("regression not reported:\n%s", out.String())
	}
	if strings.Count(out.String(), "[REGRESSION]") != 1 {
		t.Fatalf("exactly one regression mark expected (the untracked +200%% bench must not be flagged):\n%s", out.String())
	}
}

// mkMemReport builds a one-package report where each benchmark carries
// ns/op, allocs/op and B/op, from (name -> [ns, allocs, bytes]) triples.
func mkMemReport(m map[string][3]float64) *Report {
	rep := &Report{}
	for name, v := range m {
		rep.Results = append(rep.Results, Result{
			Name: name, Pkg: "p3q", Iterations: 1,
			Metrics: map[string]float64{"ns/op": v[0], "allocs/op": v[1], "B/op": v[2]},
		})
	}
	return rep
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	// Faster but allocating more: the allocs/op gate must flag it even
	// though ns/op improved — allocation counts are the deterministic
	// signal on noisy short runs.
	oldRep := mkMemReport(map[string][3]float64{
		"BenchmarkLazyConvergence5k/workers=1-8": {100, 1000, 4096},
	})
	newRep := mkMemReport(map[string][3]float64{
		"BenchmarkLazyConvergence5k/workers=1-8": {80, 1500, 4096},
	})
	var out strings.Builder
	if n := compareReports(oldRep, newRep, splitTracked(defaultTracked), 0.10, &out); n != 1 {
		t.Fatalf("regressions = %d, want 1 (allocs/op +50%%)\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "allocs/op") || !strings.Contains(out.String(), "[REGRESSION]") {
		t.Fatalf("allocs/op regression not reported:\n%s", out.String())
	}
}

func TestCompareAllocsMissingFromOldSide(t *testing.T) {
	// Artifacts predating -benchmem have no allocs/op: the comparison must
	// fall back to the ns/op gate alone instead of failing or flagging.
	oldRep := mkReport(map[string]float64{
		"BenchmarkLazyConvergence5k/workers=1-8": 100,
	})
	newRep := mkMemReport(map[string][3]float64{
		"BenchmarkLazyConvergence5k/workers=1-8": {95, 1500, 4096},
	})
	var out strings.Builder
	if n := compareReports(oldRep, newRep, splitTracked(defaultTracked), 0.10, &out); n != 0 {
		t.Fatalf("regressions = %d, want 0 (no old-side allocs to compare)\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "[tracked]") {
		t.Fatalf("tracked mark missing:\n%s", out.String())
	}
}

func TestCompareTracksNRARunAllocs(t *testing.T) {
	// The NRA merge kernel is tracked by default: an allocs/op growth is
	// flagged even when ns/op improved.
	oldRep := mkMemReport(map[string][3]float64{"BenchmarkNRARun-2": {1000, 1766, 84680}})
	newRep := mkMemReport(map[string][3]float64{"BenchmarkNRARun-2": {900, 2789, 131080}})
	var out strings.Builder
	if n := compareReports(oldRep, newRep, splitTracked(defaultTracked), 0.10, &out); n != 1 {
		t.Fatalf("regressions = %d, want 1 (BenchmarkNRARun allocs/op +58%%)\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkNRARun") || !strings.Contains(out.String(), "[REGRESSION]") {
		t.Fatalf("NRA kernel regression not reported:\n%s", out.String())
	}
}

func TestCompareTracksPlanIntegrateAllocs(t *testing.T) {
	// The lazy integration kernel is tracked by default and allocates
	// nothing: any allocation is flagged even when ns/op improved, and an
	// allocation-free run stays clean.
	oldRep := mkMemReport(map[string][3]float64{"BenchmarkPlanIntegrate-2": {6000, 0, 0}})
	newRep := mkMemReport(map[string][3]float64{"BenchmarkPlanIntegrate-2": {5000, 1, 64}})
	var out strings.Builder
	if n := compareReports(oldRep, newRep, splitTracked(defaultTracked), 0.10, &out); n != 1 {
		t.Fatalf("regressions = %d, want 1 (BenchmarkPlanIntegrate allocs/op 0 -> 1)\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkPlanIntegrate") || !strings.Contains(out.String(), "[REGRESSION]") {
		t.Fatalf("integration kernel regression not reported:\n%s", out.String())
	}
	out.Reset()
	if n := compareReports(oldRep, oldRep, splitTracked(defaultTracked), 0.10, &out); n != 0 {
		t.Fatalf("regressions = %d, want 0 (unchanged allocation-free run)\n%s", n, out.String())
	}
}

func TestCompareTracks100kFamily(t *testing.T) {
	oldRep := mkReport(map[string]float64{"BenchmarkLazyConvergence100k/workers=1-8": 100})
	newRep := mkReport(map[string]float64{"BenchmarkLazyConvergence100k/workers=1-8": 150})
	var out strings.Builder
	if n := compareReports(oldRep, newRep, splitTracked(defaultTracked), 0.10, &out); n != 1 {
		t.Fatalf("regressions = %d, want 1 (100k family is tracked by default)\n%s", n, out.String())
	}
}

func TestCompareCleanRun(t *testing.T) {
	oldRep := mkReport(map[string]float64{
		"BenchmarkLazyConvergence5k/workers=1-8": 100,
		"BenchmarkGone-8":                        50,
	})
	newRep := mkReport(map[string]float64{
		"BenchmarkLazyConvergence5k/workers=1-8": 80, // faster
		"BenchmarkNew-8":                         10, // only in new: skipped
	})
	var out strings.Builder
	if n := compareReports(oldRep, newRep, splitTracked(defaultTracked), 0.10, &out); n != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "-20.0%") {
		t.Fatalf("speedup not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "BenchmarkNew") || strings.Contains(out.String(), "BenchmarkGone") {
		t.Fatalf("benchmarks missing from one side should be skipped:\n%s", out.String())
	}
}

func TestCompareEndToEnd(t *testing.T) {
	// The full pipeline: parse text output into reports, write them as the
	// CI artifact JSON, reload, compare.
	oldRep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	faster := strings.ReplaceAll(sample, "412345678 ns/op", "212345678 ns/op")
	newRep, err := parse(strings.NewReader(faster))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if n := compareReports(oldRep, newRep, splitTracked(defaultTracked), 0.10, &out); n != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "[tracked]") {
		t.Fatalf("tracked benchmarks not marked:\n%s", out.String())
	}
}

// writeArtifact stores a report as a JSON artifact file for history tests.
func writeArtifact(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHistoryTable(t *testing.T) {
	dir := t.TempDir()
	mk := func(ns, plan, commit float64) *Report {
		return &Report{Results: []Result{
			{Name: "BenchmarkLazyConvergence5k/workers=1-8", Pkg: "p3q", Iterations: 1,
				Metrics: map[string]float64{
					"ns/op": ns, "plan-ns/op": plan, "commit-ns/op": commit,
					"allocs/op": 1200, "B/op": 65536, "alloc-B/node": 13,
				}},
			{Name: "BenchmarkUntracked-8", Pkg: "p3q", Iterations: 1,
				Metrics: map[string]float64{"ns/op": 1}},
		}}
	}
	a := writeArtifact(t, dir, "BENCH_aaa.json", mk(1000, 600, 300))
	b := writeArtifact(t, dir, "BENCH_bbb.json", mk(900, 500, 320))

	var out strings.Builder
	if err := historyTable([]string{a, b}, splitTracked(defaultTracked), false, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"| BENCH_aaa.json | BenchmarkLazyConvergence5k/workers=1 | 1000 | 1200 | 65536 | 13 | 600 | 300 | 66.7% |",
		"| BENCH_bbb.json | BenchmarkLazyConvergence5k/workers=1 | 900 | 1200 | 65536 | 13 | 500 | 320 | 61.0% |",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("history table missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "BenchmarkUntracked") {
		t.Fatalf("untracked benchmark leaked into the history table:\n%s", got)
	}

	out.Reset()
	if err := historyTable([]string{a, b}, splitTracked(defaultTracked), true, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BENCH_aaa.json,BenchmarkLazyConvergence5k/workers=1,1000,1200,65536,13,600,300,66.7%") {
		t.Fatalf("CSV history missing row:\n%s", out.String())
	}
}

func TestHistoryTableBlanksMissingMemoryMetrics(t *testing.T) {
	// Artifacts from before -benchmem carry no memory metrics: their rows
	// render blank cells in those columns rather than zeros or errors.
	dir := t.TempDir()
	rep := &Report{Results: []Result{
		{Name: "BenchmarkLazyConvergence5k/workers=1-8", Pkg: "p3q", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1000, "plan-ns/op": 600, "commit-ns/op": 300}},
	}}
	p := writeArtifact(t, dir, "BENCH_old.json", rep)
	var out strings.Builder
	if err := historyTable([]string{p}, splitTracked(defaultTracked), false, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| BENCH_old.json | BenchmarkLazyConvergence5k/workers=1 | 1000 |  |  |  | 600 | 300 | 66.7% |") {
		t.Fatalf("pre-benchmem artifact row misrendered:\n%s", out.String())
	}
}

func TestHistoryTableNoTrackedBenches(t *testing.T) {
	// Artifacts that carry no tracked benchmark degrade to a note, not an
	// error: the CI job-summary step must not fail on them.
	dir := t.TempDir()
	p := writeArtifact(t, dir, "BENCH_x.json", mkReport(map[string]float64{"BenchmarkOther-8": 5}))
	var out strings.Builder
	if err := historyTable([]string{p}, splitTracked(defaultTracked), false, &out); err != nil {
		t.Fatalf("history over untracked-only artifacts should degrade gracefully, got %v", err)
	}
	if !strings.Contains(out.String(), "nothing to tabulate yet") {
		t.Fatalf("missing graceful note:\n%s", out.String())
	}
	if strings.Contains(out.String(), "| --- |") {
		t.Fatalf("unexpected table header in the no-rows case:\n%s", out.String())
	}
}

func TestHistoryTableEmptySeries(t *testing.T) {
	// A cold start has no archived artifacts at all: -history over an empty
	// series is a note and a zero exit, not a usage error.
	var out strings.Builder
	if err := historyTable(nil, splitTracked(defaultTracked), false, &out); err != nil {
		t.Fatalf("history over an empty series should degrade gracefully, got %v", err)
	}
	if !strings.Contains(out.String(), "no archived benchmark artifacts yet") {
		t.Fatalf("missing cold-start note:\n%s", out.String())
	}
}

func TestHistoryTableSingleArtifact(t *testing.T) {
	// The first run after a cold start has a one-element series; it must
	// render as a one-row table rather than demanding a pair to diff.
	dir := t.TempDir()
	rep := &Report{Results: []Result{
		{Name: "BenchmarkEagerBurst5k/workers=1-8", Pkg: "p3q", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 700, "plan-ns/op": 400, "commit-ns/op": 200}},
	}}
	p := writeArtifact(t, dir, "BENCH_only.json", rep)
	var out strings.Builder
	if err := historyTable([]string{p}, splitTracked(defaultTracked), false, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| BENCH_only.json | BenchmarkEagerBurst5k/workers=1 | 700 |  |  |  | 400 | 200 | 66.7% |") {
		t.Fatalf("single-artifact history row missing:\n%s", out.String())
	}
}
