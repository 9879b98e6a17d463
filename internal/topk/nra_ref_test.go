package topk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"p3q/internal/tagging"
)

// refNRA is a naive reference model of NRA implementing the pre-selection
// semantics literally: a best-case map and a full re-sort of every
// candidate at every scan position. The property and fuzz tests drive it
// in lockstep with the bounded top-k implementation and demand identical
// Run outputs, scan costs, drained results and captured states.
type refNRA struct {
	k           int
	lists       []*scanList
	cands       map[tagging.ItemID]*candidate
	ranked      []*candidate
	bests       map[tagging.ItemID]int
	sumLastSeen int
}

func newRefNRA(k int) *refNRA {
	if k < 1 {
		k = 1
	}
	return &refNRA{k: k, cands: make(map[tagging.ItemID]*candidate), bests: make(map[tagging.ItemID]int)}
}

// refFromState rebuilds a reference operator from a captured state.
func refFromState(st NRAState) *refNRA {
	r := newRefNRA(st.K)
	for _, l := range st.Lists {
		r.lists = append(r.lists, &scanList{entries: l.Entries, pos: l.Pos})
	}
	for _, c := range st.Cands {
		r.cands[c.Item] = &candidate{item: c.Item, worst: c.Worst, seenIn: c.SeenIn}
	}
	r.rebuildRanking()
	return r
}

func (r *refNRA) run(newLists [][]Entry) []Entry {
	var scanning []int
	for _, l := range newLists {
		if len(l) == 0 {
			continue
		}
		r.lists = append(r.lists, &scanList{entries: l})
		scanning = append(scanning, len(r.lists)-1)
	}
	position := 1
	for {
		r.rebuildRanking()
		if r.stopConditionMet() {
			break
		}
		progressed := false
		for _, li := range scanning {
			if r.scanOne(li) {
				progressed = true
			}
		}
		position++
		for li, l := range r.lists {
			if l.pos == position-1 && !l.exhausted() && !contains(scanning, li) {
				scanning = append(scanning, li)
			}
		}
		if !progressed {
			r.rebuildRanking()
			break
		}
	}
	return r.topK()
}

func (r *refNRA) drain() []Entry {
	for li, l := range r.lists {
		for !l.exhausted() {
			r.scanOne(li)
		}
	}
	r.rebuildRanking()
	return r.topK()
}

func (r *refNRA) scanOne(li int) bool {
	l := r.lists[li]
	if l.exhausted() {
		return false
	}
	e := l.entries[l.pos]
	l.pos++
	c := r.cands[e.Item]
	if c == nil {
		c = &candidate{item: e.Item}
		r.cands[e.Item] = c
	}
	c.worst += e.Score
	c.seenIn = append(c.seenIn, li)
	return true
}

func (r *refNRA) scannedEntries() int {
	total := 0
	for _, l := range r.lists {
		total += l.pos
	}
	return total
}

func (r *refNRA) topK() []Entry {
	k := min(r.k, len(r.ranked))
	out := make([]Entry, k)
	for i := 0; i < k; i++ {
		out[i] = Entry{Item: r.ranked[i].item, Score: r.ranked[i].worst}
	}
	return out
}

// rebuildRanking recomputes best-case scores and re-sorts the whole
// candidate heap: descending worst-case, then descending best-case, then
// ascending item ID.
func (r *refNRA) rebuildRanking() {
	r.sumLastSeen = 0
	for _, l := range r.lists {
		r.sumLastSeen += l.lastSeen()
	}
	r.ranked = r.ranked[:0]
	for _, c := range r.cands {
		r.ranked = append(r.ranked, c)
		b := c.worst + r.sumLastSeen
		for _, li := range c.seenIn {
			b -= r.lists[li].lastSeen()
		}
		r.bests[c.item] = b
	}
	sort.Slice(r.ranked, func(i, j int) bool {
		a, b := r.ranked[i], r.ranked[j]
		if a.worst != b.worst {
			return a.worst > b.worst
		}
		if r.bests[a.item] != r.bests[b.item] {
			return r.bests[a.item] > r.bests[b.item]
		}
		return a.item < b.item
	})
}

func (r *refNRA) stopConditionMet() bool {
	if len(r.ranked) < r.k {
		return false
	}
	kthWorst := r.ranked[r.k-1].worst
	maxBest := r.sumLastSeen
	for _, c := range r.ranked[r.k:] {
		if b := r.bests[c.item]; b > maxBest {
			maxBest = b
		}
	}
	return kthWorst >= maxBest
}

func (r *refNRA) state() NRAState {
	st := NRAState{K: r.k}
	for _, l := range r.lists {
		st.Lists = append(st.Lists, NRAListState{Entries: l.entries, Pos: l.pos})
	}
	items := make([]tagging.ItemID, 0, len(r.cands))
	for it := range r.cands {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, it := range items {
		c := r.cands[it]
		st.Cands = append(st.Cands, NRACandidateState{Item: c.item, Worst: c.worst, SeenIn: c.seenIn})
	}
	return st
}

// stepAgainstRef feeds lists to n and a reference in the given batch
// sizes, restoring n from its captured state before batch restoreAt (no
// restore when restoreAt is negative), and fails at the first divergence
// in Run output, scan cost, State or Drain.
func stepAgainstRef(t *testing.T, k int, lists [][]Entry, batches []int, restoreAt int) {
	t.Helper()
	n, ref := NewNRA(k), newRefNRA(k)
	i := 0
	for b, size := range batches {
		if b == restoreAt {
			st := n.State()
			restored, err := RestoreNRA(st)
			if err != nil {
				t.Fatalf("batch %d: restore: %v", b, err)
			}
			n, ref = restored, refFromState(ref.state())
			if got, want := n.TopK(), ref.topK(); !equalEntries(got, want) {
				t.Fatalf("batch %d: restored TopK = %v, ref %v", b, got, want)
			}
		}
		size = min(size, len(lists)-i)
		got, want := n.Run(lists[i:i+size]), ref.run(lists[i:i+size])
		i += size
		if !equalEntries(got, want) {
			t.Fatalf("batch %d: Run = %v, ref %v", b, got, want)
		}
		if n.ScannedEntries() != ref.scannedEntries() {
			t.Fatalf("batch %d: scanned %d, ref %d", b, n.ScannedEntries(), ref.scannedEntries())
		}
		if !reflect.DeepEqual(n.State(), ref.state()) {
			t.Fatalf("batch %d: State diverges from the reference", b)
		}
	}
	if got, want := n.Drain(), ref.drain(); !equalEntries(got, want) {
		t.Fatalf("Drain = %v, ref %v", got, want)
	}
	if !reflect.DeepEqual(n.State(), ref.state()) {
		t.Fatal("drained State diverges from the reference")
	}
}

// randomBatches cuts nLists lists into batches of 1..maxBatch (zero-sized
// batches included, like a querier cycle with no arrivals).
func randomBatches(rng *rand.Rand, nLists, maxBatch int) []int {
	var out []int
	for left := nLists; left > 0; {
		b := rng.Intn(maxBatch + 1)
		out = append(out, b)
		left -= b
	}
	return out
}

func TestNRAMatchesReferenceProperty(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(12)
		// Small score ranges force worst-case ties, so the best-case and
		// item tie-breaks decide the order.
		lists := randomLists(seed, 1+rng.Intn(20), 10+rng.Intn(60), 1+rng.Intn(30), 1+rng.Intn(6))
		batches := randomBatches(rng, len(lists), 4)
		restoreAt := rng.Intn(len(batches)+1) - 1
		stepAgainstRef(t, k, lists, batches, restoreAt)
	}
}

// FuzzNRAMatchesReference decodes arbitrary bytes into a k, a stream of
// canonical partial result lists, a batching and a restore point, and
// demands the bounded top-k operator match the full-sort reference.
func FuzzNRAMatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 9, 2, 7, 3, 2, 0xff, 2, 8, 4, 6, 1, 1, 0xff, 5, 5, 3, 4})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 0xff, 0, 1, 2, 1})
	f.Add([]byte{10, 2, 4, 4, 4, 4, 5, 4, 6, 4, 0xff, 7, 4, 8, 4, 0xff, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0]%16)
		restoreAt := int(data[1]%8) - 1
		data = data[2:]
		// Entries are (item, score) byte pairs; 0xff ends a list.
		var lists [][]Entry
		acc := map[tagging.ItemID]int{}
		flush := func() {
			es := make([]Entry, 0, len(acc))
			for it, sc := range acc {
				es = append(es, Entry{it, sc})
			}
			SortEntries(es)
			lists = append(lists, es)
			acc = map[tagging.ItemID]int{}
		}
		for i := 0; i < len(data); i++ {
			if data[i] == 0xff || i+1 == len(data) {
				flush()
				continue
			}
			acc[tagging.ItemID(data[i]%32)] += 1 + int(data[i+1]%8)
			i++
		}
		batches := make([]int, 0, len(lists))
		for i, left := 0, len(lists); left > 0; i++ {
			b := 1 + i%3
			batches = append(batches, b)
			left -= b
		}
		stepAgainstRef(t, k, lists, batches, restoreAt)
	})
}
