// Package similarity computes the P3Q user-similarity metric and the
// offline "ideal personal network" oracle used as ground truth by the
// evaluation (§3.2.1: "the ideal one obtained off-line using the global
// information about all users' profiles").
//
// The similarity between two users is the number of common tagging actions,
// Score(ui, uj) = |Profile(ui) ∩ Profile(uj)| — the metric of §2.1. The
// oracle builds an inverted index from (item, tag) pairs to the users that
// performed them and accumulates pairwise co-occurrence counts, which is
// dramatically cheaper than all-pairs profile intersection and scales as the
// total co-occurrence mass of the trace.
package similarity

import (
	"runtime"
	"sync"

	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// Neighbour is a scored candidate for a user's personal network.
type Neighbour struct {
	ID    tagging.UserID
	Score int
}

// Index maps every tagging action to the users that performed it.
type Index struct {
	byAction map[uint64][]tagging.UserID
	users    int
}

// Build constructs the inverted index of the dataset.
func Build(d *trace.Dataset) *Index {
	ix := &Index{
		byAction: make(map[uint64][]tagging.UserID, d.TotalActions()),
		users:    d.Users(),
	}
	for _, p := range d.Profiles {
		u := p.Owner()
		for _, a := range p.Actions() {
			k := a.Key()
			ix.byAction[k] = append(ix.byAction[k], u)
		}
	}
	return ix
}

// UsersFor returns the users that performed the given action. The returned
// slice aliases the index and must not be modified.
func (ix *Index) UsersFor(a tagging.Action) []tagging.UserID {
	return ix.byAction[a.Key()]
}

// TopNeighbours returns the s best neighbours of the user by similarity
// score (positive scores only), ordered by descending score with ascending
// ID as the deterministic tie-break.
func (ix *Index) TopNeighbours(p *tagging.Profile, s int) []Neighbour {
	return ix.newScorer().topNeighbours(p, s)
}

// scorer is one worker's scratch for TopNeighbours: a dense co-occurrence
// score per user, reset after each profile through the list of users it
// touched.
type scorer struct {
	ix      *Index
	scores  []int32
	touched []tagging.UserID
}

func (ix *Index) newScorer() *scorer {
	return &scorer{ix: ix, scores: make([]int32, ix.users)}
}

// topNeighbours scores every user sharing an action with p's owner and
// keeps the s best in a bounded sorted selection, so only the co-occurring
// users are visited and none of them is sorted beyond the top s.
func (sc *scorer) topNeighbours(p *tagging.Profile, s int) []Neighbour {
	self := p.Owner()
	for _, a := range p.Actions() {
		for _, v := range sc.ix.byAction[a.Key()] {
			if v == self {
				continue
			}
			if sc.scores[v] == 0 {
				sc.touched = append(sc.touched, v)
			}
			sc.scores[v]++
		}
	}
	s = max(s, 0)
	top := make([]Neighbour, 0, min(s, len(sc.touched)))
	for _, v := range sc.touched {
		nb := Neighbour{ID: v, Score: int(sc.scores[v])}
		sc.scores[v] = 0
		if len(top) == s {
			if s == 0 || !before(nb, top[s-1]) {
				continue
			}
			top = top[:s-1]
		}
		i := len(top)
		top = append(top, nb)
		for ; i > 0 && before(nb, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = nb
	}
	sc.touched = sc.touched[:0]
	return top
}

// before reports whether a ranks ahead of b: higher score, then lower ID.
func before(a, b Neighbour) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// IdealNetworks computes the ideal personal network (top-s neighbours) of
// every user, in parallel across CPUs. The result is indexed by user ID and
// fully deterministic.
func IdealNetworks(d *trace.Dataset, s int) [][]Neighbour {
	ix := Build(d)
	return IdealNetworksWithIndex(d, ix, s)
}

// IdealNetworksWithIndex is IdealNetworks with a pre-built index, for
// callers that reuse the index across calls.
func IdealNetworksWithIndex(d *trace.Dataset, ix *Index, s int) [][]Neighbour {
	n := d.Users()
	out := make([][]Neighbour, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ix.newScorer()
			for u := range next {
				out[u] = sc.topNeighbours(d.Profiles[u], s)
			}
		}()
	}
	for u := 0; u < n; u++ {
		next <- u
	}
	close(next)
	wg.Wait()
	return out
}

// Score computes the similarity between two live profiles directly, without
// an index. It is the reference implementation the index is tested against.
func Score(a, b *tagging.Profile) int {
	return a.CommonScore(b.Snapshot())
}
