package core

import (
	"math/rand"
	"testing"
)

// BenchmarkPlanIntegrate times step 1-2 of Algorithm 1 (planIntegrateInto)
// on a converged 2000-user engine. Each op integrates one batch of fresh
// offers from users the node has never scored and does not hold — the
// random-view contacts of a lazy cycle — so every offer that shares an item
// reaches the step-2 scoring kernel. The plan slot is reused across ops, as
// the engine's pooled plans are, so a warm op allocates nothing.
func BenchmarkPlanIntegrate(b *testing.B) {
	cfg := smallCfg()
	cfg.S, cfg.C = 50, 10
	w := newWorld(b, 2000, cfg, 5)
	e := New(w.ds, cfg)
	e.Bootstrap()
	e.RunLazy(10)

	type batch struct {
		n      *Node
		offers []offer
	}
	rng := rand.New(rand.NewSource(1))
	var batches []batch
	for _, n := range e.nodes {
		var offers []offer
		for len(offers) < 8 {
			u := e.nodes[rng.Intn(len(e.nodes))]
			if _, known := n.evaluated[u.id]; known || u == n || n.pnet.Contains(u.id) {
				continue
			}
			offers = append(offers, offer{digest: u.digest(), snap: u.profile.Snapshot()})
		}
		batches = append(batches, batch{n: n, offers: offers})
	}

	// One untimed pass grows the slot's buffers to the largest batch, so
	// even a -benchtime=1x run measures the warm, allocation-free kernel.
	var it integration
	for i := range batches {
		planIntegrateInto(&it, batches[i].n, batches[i].offers, batches[i].offers[0].digest.Owner, nil)
	}
	scored := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := &batches[i%len(batches)]
		planIntegrateInto(&it, bt.n, bt.offers, bt.offers[0].digest.Owner, nil)
		scored += len(it.results)
	}
	b.StopTimer()
	b.ReportMetric(float64(scored)/float64(b.N), "scored/op")
}
