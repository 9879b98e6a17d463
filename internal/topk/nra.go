package topk

import (
	"fmt"
	"math"
	"sort"

	"p3q/internal/tagging"
)

// NRA is the incremental No-Random-Access top-k operator of Algorithm 4.
//
// The querier cannot use a classical one-shot NRA because partial result
// lists arrive asynchronously, one batch per gossip cycle. NRA therefore
// keeps the scan state of every list across invocations: each Run cycle
// scans the newly arrived lists from their head, and previously stopped
// lists rejoin the scan when the cursor reaches the position where they
// stopped — so every list is scanned at most once over the whole
// processing, as §2.3 requires.
//
// Scores follow the classical NRA bounds. For a candidate item:
//
//   - worst-case score: the sum of its scores in the lists where it has
//     been seen (it is assumed absent everywhere else);
//   - best-case score: the worst-case plus, for every list where it has
//     not been seen, that list's last seen score.
//
// Scanning stops when no candidate outside the current top-k — nor any
// hypothetical item unseen in every list — has a best-case score above the
// worst-case score of the k-th candidate. That test reads only the top-k
// and the largest best-case score outside it, so at each scan position
// the operator selects the top-k in one bounded pass over the candidates
// (ranked) and keeps only that maximum of the rest (restBest), instead of
// sorting every candidate.
type NRA struct {
	k     int
	lists []*scanList
	cands map[tagging.ItemID]*candidate
	// seen holds every candidate in first-seen order; rebuildRanking walks
	// it instead of the map.
	seen []*candidate
	// ranked is the top-k of the candidate heap of Algorithm 4, ordered by
	// descending worst-case score (ties: larger best-case first, then
	// ascending item). Items are unique, so the order is strict and the
	// selected top-k is exactly the first k of a full sort.
	ranked []*candidate
	// restBest is the largest best-case score among candidates outside
	// ranked as of the last rebuildRanking (math.MinInt when there are
	// none).
	restBest int
	// sumLastSeen caches the sum of lastSeen over all lists as of the last
	// rebuildRanking (the unseen-item bound).
	sumLastSeen int
	// lastSeen is rebuildRanking's scratch copy of every list's lastSeen.
	lastSeen []int
}

type scanList struct {
	entries []Entry
	pos     int // number of entries scanned so far
}

// lastSeen is the list's current upper bound for items not yet seen in it:
// the score at the last scanned position (the head score before any scan,
// zero once exhausted).
func (l *scanList) lastSeen() int {
	if l.pos >= len(l.entries) {
		return 0
	}
	if l.pos == 0 {
		return l.entries[0].Score
	}
	return l.entries[l.pos-1].Score
}

func (l *scanList) exhausted() bool { return l.pos >= len(l.entries) }

type candidate struct {
	item  tagging.ItemID
	worst int
	best  int // best-case score as of the last rebuildRanking
	// seenIn lists the indexes of the lists where the item has been seen,
	// in ascending order (each list contributes at most once).
	seenIn []int
}

// NewNRA returns an incremental NRA operator for top-k queries.
func NewNRA(k int) *NRA {
	if k < 1 {
		k = 1
	}
	return &NRA{
		k:     k,
		cands: make(map[tagging.ItemID]*candidate),
	}
}

// K returns the operator's k.
func (n *NRA) K() int { return n.k }

// Lists returns the number of (non-empty) partial result lists absorbed so
// far.
func (n *NRA) Lists() int { return len(n.lists) }

// ScannedEntries returns the total number of list entries consumed by the
// scan so far — NRA's native cost metric (sequential accesses). The early
// stopping condition exists to keep this below the total entry count.
func (n *NRA) ScannedEntries() int {
	total := 0
	for _, l := range n.lists {
		total += l.pos
	}
	return total
}

// TotalEntries returns the total number of entries across absorbed lists.
func (n *NRA) TotalEntries() int {
	total := 0
	for _, l := range n.lists {
		total += len(l.entries)
	}
	return total
}

// Run absorbs a batch of newly arrived partial result lists (each sorted in
// canonical order, as produced by PartialList) and returns the current
// top-k estimate. Lists must not be mutated by the caller afterwards.
func (n *NRA) Run(newLists [][]Entry) []Entry {
	scanning := make([]int, 0, len(newLists))
	for _, l := range newLists {
		if len(l) == 0 {
			continue
		}
		n.lists = append(n.lists, &scanList{entries: l})
		scanning = append(scanning, len(n.lists)-1)
	}

	position := 1
	for {
		n.rebuildRanking()
		if n.stopConditionMet() {
			break
		}
		progressed := false
		for _, li := range scanning {
			if n.scanOne(li) {
				progressed = true
			}
		}
		position++
		// Old lists that had stopped at position-1 rejoin the scan
		// (Algorithm 4, lines 18-22).
		for li, l := range n.lists {
			if l.pos == position-1 && !l.exhausted() && !contains(scanning, li) {
				scanning = append(scanning, li)
			}
		}
		if !progressed {
			// Nothing left to scan this cycle; the estimate cannot improve
			// until new lists arrive.
			n.rebuildRanking()
			break
		}
	}
	return n.TopK()
}

// Drain scans every absorbed list to exhaustion and returns the now-exact
// top-k. The protocol calls this when a query completes (no remaining list
// anywhere): §2.2.2 guarantees "the accurate (recall of 1) personalized
// results" at that moment, which requires resolving any score bounds the
// early-stopping condition left open. Each list is still scanned at most
// once overall: Drain merely finishes scans the stop condition cut short.
func (n *NRA) Drain() []Entry {
	for li, l := range n.lists {
		for !l.exhausted() {
			n.scanOne(li)
		}
	}
	n.rebuildRanking()
	return n.TopK()
}

// scanOne advances list li by one entry, updating its candidate. It reports
// whether an entry was consumed.
func (n *NRA) scanOne(li int) bool {
	l := n.lists[li]
	if l.exhausted() {
		return false
	}
	e := l.entries[l.pos]
	l.pos++
	c := n.cands[e.Item]
	if c == nil {
		c = &candidate{item: e.Item}
		n.cands[e.Item] = c
		n.seen = append(n.seen, c)
	}
	c.worst += e.Score
	c.seenIn = append(c.seenIn, li)
	return true
}

// TopK returns the current top-k estimate (ranked by worst-case score) with
// each entry carrying its worst-case score.
func (n *NRA) TopK() []Entry {
	k := n.k
	if k > len(n.ranked) {
		k = len(n.ranked)
	}
	out := make([]Entry, k)
	for i := 0; i < k; i++ {
		out[i] = Entry{Item: n.ranked[i].item, Score: n.ranked[i].worst}
	}
	return out
}

// rebuildRanking recomputes every candidate's best-case score, selects the
// top-k into ranked by insertion and records the largest best-case score
// left outside it in restBest.
func (n *NRA) rebuildRanking() {
	n.lastSeen = n.lastSeen[:0]
	n.sumLastSeen = 0
	for _, l := range n.lists {
		ls := l.lastSeen()
		n.lastSeen = append(n.lastSeen, ls)
		n.sumLastSeen += ls
	}
	n.ranked = n.ranked[:0]
	n.restBest = math.MinInt
	for _, c := range n.seen {
		b := c.worst + n.sumLastSeen
		for _, li := range c.seenIn {
			b -= n.lastSeen[li]
		}
		c.best = b
		if len(n.ranked) == n.k {
			last := n.ranked[n.k-1]
			if !ahead(c, last) {
				n.restBest = max(n.restBest, b)
				continue
			}
			n.restBest = max(n.restBest, last.best)
			n.ranked = n.ranked[:n.k-1]
		}
		i := len(n.ranked)
		n.ranked = append(n.ranked, c)
		for ; i > 0 && ahead(c, n.ranked[i-1]); i-- {
			n.ranked[i] = n.ranked[i-1]
		}
		n.ranked[i] = c
	}
}

// ahead reports whether a ranks before b in the candidate heap.
func ahead(a, b *candidate) bool {
	if a.worst != b.worst {
		return a.worst > b.worst
	}
	if a.best != b.best {
		return a.best > b.best
	}
	return a.item < b.item
}

// NRAState is the serializable scan state of an incremental NRA operator:
// every absorbed list with its cursor and every candidate with its
// worst-case accumulation. The derived ranking (best-case bounds, sorted
// candidate order) is a pure function of this state and is rebuilt by
// RestoreNRA, so it is deliberately not part of the snapshot.
type NRAState struct {
	K     int
	Lists []NRAListState
	Cands []NRACandidateState
}

// NRAListState is one absorbed partial result list and its scan cursor.
type NRAListState struct {
	Entries []Entry
	Pos     int
}

// NRACandidateState is one candidate's accumulated state. SeenIn holds the
// indexes of the lists the item has been seen in, in scan order.
type NRACandidateState struct {
	Item   tagging.ItemID
	Worst  int
	SeenIn []int
}

// State captures the operator for checkpointing. Candidates are emitted in
// ascending item order so the snapshot is deterministic; list entry slices
// are shared with the operator, not cloned.
func (n *NRA) State() NRAState {
	st := NRAState{K: n.k}
	for _, l := range n.lists {
		st.Lists = append(st.Lists, NRAListState{Entries: l.entries, Pos: l.pos})
	}
	items := make([]tagging.ItemID, 0, len(n.cands))
	for it := range n.cands {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, it := range items {
		c := n.cands[it]
		st.Cands = append(st.Cands, NRACandidateState{Item: c.item, Worst: c.worst, SeenIn: c.seenIn})
	}
	return st
}

// RestoreNRA rebuilds an operator from a captured state, validating cursor
// and list-index bounds, and recomputes the derived ranking so TopK is
// immediately consistent. Identical future Run/Drain calls on the restored
// operator produce byte-for-byte the results of the original.
func RestoreNRA(st NRAState) (*NRA, error) {
	n := NewNRA(st.K)
	for i, l := range st.Lists {
		if l.Pos < 0 || l.Pos > len(l.Entries) {
			return nil, fmt.Errorf("topk: restored list %d has cursor %d outside [0, %d]", i, l.Pos, len(l.Entries))
		}
		n.lists = append(n.lists, &scanList{entries: l.Entries, pos: l.Pos})
	}
	for _, c := range st.Cands {
		if _, dup := n.cands[c.Item]; dup {
			return nil, fmt.Errorf("topk: restored candidate %d duplicated", c.Item)
		}
		for _, li := range c.SeenIn {
			if li < 0 || li >= len(n.lists) {
				return nil, fmt.Errorf("topk: restored candidate %d seen in out-of-range list %d", c.Item, li)
			}
		}
		cand := &candidate{item: c.Item, worst: c.Worst, seenIn: c.SeenIn}
		n.cands[c.Item] = cand
		n.seen = append(n.seen, cand)
	}
	n.rebuildRanking()
	return n, nil
}

// stopConditionMet implements the loop guard of Algorithm 4 (negated): stop
// when the worst-case score of the k-th candidate is at least the largest
// best-case score among candidates outside the top-k — including the bound
// for items not seen anywhere yet.
func (n *NRA) stopConditionMet() bool {
	if len(n.ranked) < n.k {
		return false
	}
	return n.ranked[n.k-1].worst >= max(n.sumLastSeen, n.restBest)
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
