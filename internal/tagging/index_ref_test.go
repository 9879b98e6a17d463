package tagging

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"p3q/internal/bloom"
)

// The reference model below is the log-scan implementation the item chain
// index replaced: every query re-reads the snapshot's log prefix. The
// property and fuzz tests build random profiles (duplicate actions
// included) and demand that every chain-walking accessor agrees with it on
// every prefix snapshot.

func refActionsOnItems(s Snapshot, items []ItemID) []Action {
	var out []Action
	for _, a := range s.Actions() {
		for _, it := range items {
			if a.Item == it {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

func refScoreOnItems(s Snapshot, holder *Profile, items []ItemID) (received, score int) {
	for _, a := range refActionsOnItems(s, items) {
		received++
		if holder.Has(a.Item, a.Tag) {
			score++
		}
	}
	return received, score
}

func refHasItem(s Snapshot, item ItemID) bool {
	for _, a := range s.Actions() {
		if a.Item == item {
			return true
		}
	}
	return false
}

func refItems(s Snapshot) []ItemID {
	seen := make(map[ItemID]struct{})
	for _, a := range s.Actions() {
		seen[a.Item] = struct{}{}
	}
	out := make([]ItemID, 0, len(seen))
	for it := range seen {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refTagsFor(p *Profile, item ItemID) []TagID {
	var out []TagID
	for _, a := range p.Actions() {
		if a.Item == item {
			out = append(out, a.Tag)
		}
	}
	return out
}

// refDigest adds each distinct item of the log prefix once, in log order.
func refDigest(s Snapshot, mBits, kHashes int) *Digest {
	f := bloom.New(mBits, kHashes)
	seen := make(map[ItemID]struct{})
	for _, a := range s.Actions() {
		if _, dup := seen[a.Item]; !dup {
			seen[a.Item] = struct{}{}
			f.Add(itemKey(a.Item))
		}
	}
	return &Digest{Owner: s.Owner(), Items: f, Version: s.Version()}
}

// checkIndexAgainstReference compares every indexed accessor of p with the
// reference model, on every prefix snapshot of p and for each of the
// ascending item lists. holder is the scoring side of ScoreOnItems.
func checkIndexAgainstReference(t *testing.T, p, holder *Profile, lists [][]ItemID, maxItem ItemID) {
	t.Helper()
	if got, want := p.NumItems(), len(refItems(p.Snapshot())); got != want {
		t.Fatalf("NumItems = %d, reference %d", got, want)
	}
	for it := ItemID(0); it <= maxItem; it++ {
		if got, want := p.HasItem(it), refHasItem(p.Snapshot(), it); got != want {
			t.Fatalf("Profile.HasItem(%d) = %v, reference %v", it, got, want)
		}
		if got, want := p.TagsFor(it), refTagsFor(p, it); !reflect.DeepEqual(got, want) {
			t.Fatalf("TagsFor(%d) = %v, reference %v", it, got, want)
		}
	}
	var buf []Action
	for n := 0; n <= p.Len(); n++ {
		s := p.SnapshotAt(n)
		for it := ItemID(0); it <= maxItem; it++ {
			if got, want := s.HasItem(it), refHasItem(s, it); got != want {
				t.Fatalf("SnapshotAt(%d).HasItem(%d) = %v, reference %v", n, it, got, want)
			}
		}
		if got, want := s.Items(), refItems(s); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("SnapshotAt(%d).Items = %v, reference %v", n, got, want)
		}
		var common []ItemID
		for _, it := range holder.Items() {
			if refHasItem(s, it) {
				common = append(common, it)
			}
		}
		if got := holder.CommonItems(s); !reflect.DeepEqual(got, common) {
			t.Fatalf("CommonItems(SnapshotAt(%d)) = %v, reference %v", n, got, common)
		}
		for _, items := range lists {
			buf = s.AppendActionsOnItems(buf, items)
			if want := refActionsOnItems(s, items); len(buf)+len(want) > 0 && !reflect.DeepEqual(buf, want) {
				t.Fatalf("SnapshotAt(%d).AppendActionsOnItems(%v) = %v, reference %v", n, items, buf, want)
			}
			gr, gs := s.ScoreOnItems(holder, items)
			wr, ws := refScoreOnItems(s, holder, items)
			if gr != wr || gs != ws {
				t.Fatalf("SnapshotAt(%d).ScoreOnItems(%v) = (%d, %d), reference (%d, %d)", n, items, gr, gs, wr, ws)
			}
		}
		got, want := NewDigest(s, 256, 3), refDigest(s, 256, 3)
		if !digestsIdentical(got, want) {
			t.Fatalf("NewDigest(SnapshotAt(%d)) differs from the reference digest", n)
		}
	}
}

// randomItemLists returns count strictly ascending lists over [0, maxItem].
func randomItemLists(rng *rand.Rand, count int, maxItem ItemID) [][]ItemID {
	lists := make([][]ItemID, count)
	for i := range lists {
		keep := rng.Float64()
		for it := ItemID(0); it <= maxItem; it++ {
			if rng.Float64() < keep {
				lists[i] = append(lists[i], it)
			}
		}
	}
	return lists
}

func TestProfileIndexMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxItem := ItemID(1 + rng.Intn(30))
		tags := 1 + rng.Intn(6)
		p, holder := NewProfile(0), NewProfile(1)
		for i, n := 0, rng.Intn(120); i < n; i++ {
			p.Add(ItemID(rng.Intn(int(maxItem)+1)), TagID(rng.Intn(tags)))
			holder.Add(ItemID(rng.Intn(int(maxItem)+1)), TagID(rng.Intn(tags)))
		}
		lists := randomItemLists(rng, 6, maxItem+2)
		checkIndexAgainstReference(t, p, holder, lists, maxItem+2)
		// AppendActionsOnItems also takes unordered lists with repeats.
		for _, items := range lists {
			mixed := append(slices.Clone(items), items...)
			rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
			for n := 0; n <= p.Len(); n++ {
				s := p.SnapshotAt(n)
				if got, want := s.AppendActionsOnItems(nil, mixed), refActionsOnItems(s, mixed); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("SnapshotAt(%d).AppendActionsOnItems(%v) = %v, reference %v", n, mixed, got, want)
				}
			}
		}
	}
}

// FuzzProfileIndex decodes arbitrary bytes into two profiles' Add sequences
// (duplicates included) and a set of ascending item lists, and demands the
// chain index agree with the log-scan reference on every prefix.
func FuzzProfileIndex(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 2, 1, 1, 1, 3, 0, 0xff, 1, 1, 2, 2, 3, 3, 0xff, 0x0f, 0x35})
	f.Add([]byte{5, 0, 5, 1, 5, 0, 9, 9, 0xff, 5, 1, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxItem = 15
		p, holder := NewProfile(0), NewProfile(1)
		// (item, tag) byte pairs; 0xff switches from p to holder to lists.
		stage := 0
		var lists [][]ItemID
		for i := 0; i < len(data); i++ {
			if data[i] == 0xff {
				stage++
				continue
			}
			switch {
			case stage == 0 && i+1 < len(data):
				p.Add(ItemID(data[i]%(maxItem+1)), TagID(data[i+1]%4))
				i++
			case stage == 1 && i+1 < len(data):
				holder.Add(ItemID(data[i]%(maxItem+1)), TagID(data[i+1]%4))
				i++
			case stage >= 2 && i+1 < len(data):
				// Two bytes are a 16-bit membership mask over the items.
				mask := uint16(data[i])<<8 | uint16(data[i+1])
				var items []ItemID
				for it := ItemID(0); it <= maxItem; it++ {
					if mask&(1<<it) != 0 {
						items = append(items, it)
					}
				}
				lists = append(lists, items)
				i++
			}
		}
		checkIndexAgainstReference(t, p, holder, lists, maxItem+1)
	})
}
