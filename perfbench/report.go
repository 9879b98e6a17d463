package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one named figure with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one run measured and checked. End-to-end metrics
// come from untraced runs only; per-layer metrics from traced runs only.
type report struct {
	workload  string
	attempted int
	failed    int
	// checkFailures names every correctness check that failed. A failed
	// check also counts one failed operation.
	checkFailures []string

	endToEnd map[string]metric
	perLayer map[string]metric
	// fingerprint is the behaviour fingerprint of a simulator run.
	fingerprint string
	// notes are the human-readable lines printed before the result line:
	// sample counts, workload-specific figures and the trace breakdown.
	notes []string
}

func newReport(workload string) *report {
	return &report{
		workload: workload,
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
	}
}

func (r *report) e2e(name string, v float64, unit string)   { r.endToEnd[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string) { r.perLayer[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op records the outcome of one attempted operation.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records a correctness check as one operation; err == nil passes.
func (r *report) check(name string, err error) {
	r.op(err == nil)
	if err != nil {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf("%s: %v", name, err))
	}
}

// correct reports whether every output the run produced was verified
// correct. Operations that never completed (a deadline fired, a query did
// not finish within its drain bound) are failures, not wrong outputs: they
// raise failed without clearing correct.
func (r *report) correct() bool { return len(r.checkFailures) == 0 }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints the notes, every metric of the selected kind with its
// unit, and the result line last.
func (r *report) write(w io.Writer, traced bool) error {
	metrics := r.endToEnd
	if traced {
		metrics = r.perLayer
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for i, f := range r.checkFailures {
		if i == 20 {
			fmt.Fprintf(w, "# ... and %d more failed checks\n", len(r.checkFailures)-i)
			break
		}
		fmt.Fprintf(w, "# CHECK FAILED %s\n", f)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	fmt.Fprintf(w, "# %s: attempted %d, failed %d, failed_frac %.4g, correct %v\n",
		r.workload, attempted, r.failed, float64(r.failed)/float64(attempted), r.correct())
	line, err := json.Marshal(result{Correct: r.correct(), Attempted: attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// samples is a set of timings in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile returns the q-quantile by linear interpolation between closest
// ranks. It is 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// supports reports whether the q-quantile has at least ten samples beyond
// it, the rule for quoting a percentile.
func (s samples) supports(q float64) bool {
	return float64(len(s))*(1-q) >= 10
}

// describe renders a timing distribution for the notes: each percentile
// the sample count supports, with the count.
func (s samples) describe(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d", name, len(s))
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if s.supports(q) {
			fmt.Fprintf(&b, " p%g=%.4gs", q*100, s.quantile(q))
		}
	}
	if len(s) > 0 {
		fmt.Fprintf(&b, " mean=%.4gs", s.mean())
	}
	return b.String()
}

// ratio returns a/b, or 0 when b is 0: idle layers read 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
