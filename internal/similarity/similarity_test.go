package similarity

import (
	"sort"
	"testing"

	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// coScores is the reference model of the scorer: the similarity score of
// the profile's owner with every user sharing at least one action with the
// owner, in a map (the owner excluded).
func coScores(ix *Index, p *tagging.Profile) map[tagging.UserID]int {
	out := make(map[tagging.UserID]int)
	self := p.Owner()
	for _, a := range p.Actions() {
		for _, v := range ix.byAction[a.Key()] {
			if v != self {
				out[v]++
			}
		}
	}
	return out
}

// refTopNeighbours is the reference model of the bounded selection: a full
// sort of every co-occurring user, truncated to s.
func refTopNeighbours(ix *Index, p *tagging.Profile, s int) []Neighbour {
	scores := coScores(ix, p)
	out := make([]Neighbour, 0, len(scores))
	for id, sc := range scores {
		out = append(out, Neighbour{ID: id, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > s {
		out = out[:s]
	}
	return out
}

func testDataset(seed uint64) *trace.Dataset {
	p := trace.DefaultGenParams(120)
	p.MeanItems = 20
	p.Seed = seed
	return trace.Generate(p)
}

func TestIndexMatchesDirectScore(t *testing.T) {
	d := testDataset(1)
	ix := Build(d)
	for u := 0; u < 20; u++ {
		scores := coScores(ix, d.Profiles[u])
		for v := 0; v < d.Users(); v++ {
			if v == u {
				continue
			}
			want := Score(d.Profiles[u], d.Profiles[v])
			if got := scores[tagging.UserID(v)]; got != want {
				t.Fatalf("score(%d,%d) via index = %d, direct = %d", u, v, got, want)
			}
		}
	}
}

func TestCoScoresExcludesSelf(t *testing.T) {
	d := testDataset(2)
	ix := Build(d)
	for u := 0; u < d.Users(); u++ {
		if _, ok := coScores(ix, d.Profiles[u])[tagging.UserID(u)]; ok {
			t.Fatalf("user %d scored against herself", u)
		}
		for _, n := range ix.TopNeighbours(d.Profiles[u], d.Users()) {
			if n.ID == tagging.UserID(u) {
				t.Fatalf("user %d lists itself as a neighbour", u)
			}
		}
	}
}

func TestTopNeighboursOrdering(t *testing.T) {
	d := testDataset(3)
	ix := Build(d)
	ns := ix.TopNeighbours(d.Profiles[0], 50)
	for i := 1; i < len(ns); i++ {
		prev, cur := ns[i-1], ns[i]
		if cur.Score > prev.Score {
			t.Fatal("neighbours not sorted by descending score")
		}
		if cur.Score == prev.Score && cur.ID < prev.ID {
			t.Fatal("tie-break not ascending by ID")
		}
	}
	for _, n := range ns {
		if n.Score <= 0 {
			t.Fatalf("non-positive score %d in top neighbours", n.Score)
		}
	}
}

func TestTopNeighboursTruncates(t *testing.T) {
	d := testDataset(4)
	ix := Build(d)
	ns := ix.TopNeighbours(d.Profiles[0], 5)
	if len(ns) > 5 {
		t.Fatalf("TopNeighbours(5) returned %d entries", len(ns))
	}
}

func TestIdealNetworksDeterministic(t *testing.T) {
	d := testDataset(5)
	a := IdealNetworks(d, 20)
	b := IdealNetworks(d, 20)
	for u := range a {
		if len(a[u]) != len(b[u]) {
			t.Fatalf("user %d: ideal network sizes differ", u)
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				t.Fatalf("user %d entry %d: %v vs %v (parallel nondeterminism)", u, i, a[u][i], b[u][i])
			}
		}
	}
}

func TestIdealNetworksMatchPerUser(t *testing.T) {
	// Every user's ideal network, and TopNeighbours alone, must equal the
	// reference full sort of every co-occurring user, for sizes from 0 to
	// above the number of co-occurring users (the workers reuse one
	// scorer across users, so stale scores would show here).
	for _, seed := range []uint64{6, 12} {
		d := testDataset(seed)
		ix := Build(d)
		for _, s := range []int{0, 1, 5, 15, 500} {
			nets := IdealNetworksWithIndex(d, ix, s)
			for u := range nets {
				want := refTopNeighbours(ix, d.Profiles[u], s)
				for _, got := range [][]Neighbour{nets[u], ix.TopNeighbours(d.Profiles[u], s)} {
					if len(got) != len(want) {
						t.Fatalf("seed %d s=%d user %d: %d neighbours, reference %d", seed, s, u, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d s=%d user %d neighbour %d: %v, reference %v", seed, s, u, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestIdealNetworkContainsBestPeer(t *testing.T) {
	// Brute-force the single best neighbour for a few users and verify it
	// leads the ideal network.
	d := testDataset(7)
	nets := IdealNetworks(d, 10)
	for _, u := range []int{0, 3, 99} {
		bestScore := 0
		for v := 0; v < d.Users(); v++ {
			if v == u {
				continue
			}
			if s := Score(d.Profiles[u], d.Profiles[v]); s > bestScore {
				bestScore = s
			}
		}
		if bestScore == 0 {
			continue // isolated user: ideal network legitimately empty
		}
		if len(nets[u]) == 0 || nets[u][0].Score != bestScore {
			t.Fatalf("user %d: ideal network head score %v, brute-force best %d",
				u, nets[u], bestScore)
		}
	}
}

func TestUsersFor(t *testing.T) {
	d := testDataset(8)
	ix := Build(d)
	p := d.Profiles[0]
	a := p.Actions()[0]
	users := ix.UsersFor(a)
	found := false
	for _, u := range users {
		if u == 0 {
			found = true
		}
		if !d.Profiles[u].Has(a.Item, a.Tag) {
			t.Fatalf("index lists user %d for an action she never performed", u)
		}
	}
	if !found {
		t.Fatal("index misses the action's own performer")
	}
}

func TestScoreSymmetry(t *testing.T) {
	d := testDataset(9)
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if Score(d.Profiles[u], d.Profiles[v]) != Score(d.Profiles[v], d.Profiles[u]) {
				t.Fatalf("score(%d,%d) asymmetric", u, v)
			}
		}
	}
}

func TestIdealNetworksAfterChanges(t *testing.T) {
	// Applying a change-set must be reflected when networks are recomputed:
	// scores can only grow (profiles are append-only).
	d := testDataset(10)
	before := IdealNetworks(d, 10)
	changes := trace.GenerateChanges(d, trace.ChangeParams{
		FracUsers: 0.3, MeanNew: 10, SigmaNew: 0.6, MaxNew: 40, Seed: 11,
	})
	trace.ApplyChanges(d, changes)
	after := IdealNetworks(d, 10)
	grew := false
	for u := range after {
		if len(after[u]) > 0 && len(before[u]) > 0 && after[u][0].Score > before[u][0].Score {
			grew = true
		}
		if len(after[u]) < len(before[u]) {
			t.Fatalf("user %d lost neighbours after additive changes", u)
		}
	}
	if !grew {
		t.Fatal("no score grew after applying a substantial change-set")
	}
}

// BenchmarkIdealNetworks times the ideal-network oracle over a 2,000-user
// trace (MeanItems 20, S=50), index build excluded.
func BenchmarkIdealNetworks(b *testing.B) {
	p := trace.DefaultGenParams(2000)
	p.MeanItems = 20
	d := trace.Generate(p)
	ix := Build(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		networksSink = IdealNetworksWithIndex(d, ix, 50)
	}
}

// networksSink keeps the benchmarked result live.
var networksSink [][]Neighbour
