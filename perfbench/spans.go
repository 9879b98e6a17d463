package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_s"` // since the tracer's epoch
	End    float64 `json:"end_s"`
	Parent int32   `json:"parent"` // index of the enclosing span, -1 for a root
	Run    string  `json:"run"`    // workload-run id shared by every span of the run
}

// tracer records spans around the benchmark's calls into each layer and
// keeps them in memory until the run ends. The benchmark drives the
// system from one goroutine, so spans nest strictly and a stack of open
// spans gives each new span its parent. A nil tracer records nothing:
// untraced runs pay one nil check per call site.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(layer, name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: t.now(), Parent: parent, Run: t.run})
	t.open = append(t.open, id)
	return id
}

// end closes the span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// phases records the plan and commit windows the engine reports for the
// call under span id as two children placed back to back from the span's
// start: core measures their durations, not their positions, and they
// never overlap.
func (t *tracer) phases(id int32, plan, commit time.Duration) {
	if t == nil {
		return
	}
	s := t.spans[id].Start
	t.spans = append(t.spans,
		span{Name: "core.plan", Layer: "core.plan", Start: s, End: s + plan.Seconds(), Parent: id, Run: t.run},
		span{Name: "core.commit", Layer: "core.commit", Start: s + plan.Seconds(), End: s + plan.Seconds() + commit.Seconds(), Parent: id, Run: t.run})
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part their direct children cover. Children of one span are
// sequential, so the covered part is the sum of their durations.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Layer] += s.End - s.Start
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Layer] -= s.End - s.Start
		}
	}
	return self
}

// report adds the trace breakdown to r: each layer's self time per cycle
// (layers is the fixed list every workload reports, idle ones at 0), the
// part no layer explains (the self time of the benchmark's own root
// spans), and how much the spans account for.
func (t *tracer) report(r *report, cycles int, layers []string) {
	self := t.selfTimes()
	var whole, sum float64
	for _, s := range t.spans {
		if s.Parent < 0 {
			whole += s.End - s.Start
		}
	}
	for _, l := range layers {
		v := ratio(self[l], float64(cycles))
		r.layer("self_s."+l, v, "s")
		if l != "bench" {
			sum += self[l]
		}
	}
	for l := range self {
		if !contains(layers, l) {
			r.note("trace: span layer %q is missing from the reported layer list", l)
		}
	}
	spansPerCycle := ratio(float64(len(t.spans)), float64(cycles))
	r.layer("trace.spans_per_cycle", spansPerCycle, "count")
	// The overhead the spans add to a cycle: their count times the
	// calibrated cost of recording one. README.md compares the traced and
	// untraced medians as well.
	r.layer("trace.overhead_s_per_cycle", spansPerCycle*spanCost().Seconds(), "s")
	r.note("trace: %d spans over %d cycles; layers explain %.4gs of %.4gs traced (unexplained %.4gs, %.2f%%)",
		len(t.spans), cycles, sum, whole, whole-sum, 100*ratio(whole-sum, whole))
	names := make([]string, 0, len(self))
	for l := range self {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		r.note("trace: self %-12s %.4gs total, %.4gs per cycle", l, self[l], ratio(self[l], float64(cycles)))
	}
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing span file: %w", err)
	}
	return path, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// spanCost measures what recording one span costs, on a scratch tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer("calibration")
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("bench", "calibration"))
	}
	return time.Since(start) / n
}
