package topk

import (
	"math/rand"
	"testing"

	"p3q/internal/tagging"
)

// BenchmarkNRARun times the querier-side merge of one query shaped like a
// sim-eager query: about 50 partial result lists of 10–60 entries over a
// shared item space, arriving in batches of 1–8 per Run (one batch per
// eager cycle), then a Drain, with k = 10. The lists and batching are
// fixed by a seed, so allocs/op is deterministic.
func BenchmarkNRARun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := make([][]Entry, 50)
	for i := range lists {
		acc := make(map[tagging.ItemID]int)
		for m := 10 + rng.Intn(51); len(acc) < m; {
			acc[tagging.ItemID(rng.Intn(400))] = 1 + rng.Intn(12)
		}
		es := make([]Entry, 0, len(acc))
		for it, sc := range acc {
			es = append(es, Entry{it, sc})
		}
		SortEntries(es)
		lists[i] = es
	}
	var batches []int
	for left := len(lists); left > 0; {
		n := min(1+rng.Intn(8), left)
		batches = append(batches, n)
		left -= n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := NewNRA(10)
		at := 0
		for _, size := range batches {
			n.Run(lists[at : at+size])
			at += size
		}
		nraSink = n.Drain()
	}
}

// nraSink keeps the benchmarked result live.
var nraSink []Entry
