// Package tagging defines the data model of a collaborative tagging system
// as used by the P3Q protocol (Bai et al., EDBT 2010): users, items, tags,
// tagging actions, and user profiles.
//
// A profile is the set of tagging actions performed by one user. P3Q scores
// the similarity between two users as the number of common tagging actions,
// i.e. the number of (item, tag) pairs present in both profiles.
//
// Profiles are append-only: a tagging action, once performed, is never
// removed (the paper's dynamics only ever add actions). This makes a
// consistent point-in-time replica of a profile representable as a prefix of
// the owner's action log; see Snapshot.
package tagging

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// UserID identifies a user (and, in the simulated network, the node run by
// that user). IDs are dense: a dataset with n users uses IDs 0..n-1.
type UserID uint32

// ItemID identifies an item (URL, photo, video...). In the byte-accounting
// model an item is identified on the wire by a 128-bit hash (see ItemBytes).
type ItemID uint32

// TagID identifies a tag. Tags are interned strings; see Vocabulary.
type TagID uint32

// Action is a single tagging action: "the profile owner tagged Item with
// Tag". The owner is implicit (the profile the action belongs to).
type Action struct {
	Item ItemID
	Tag  TagID
}

// Key packs the (item, tag) pair into a single comparable 64-bit key.
func (a Action) Key() uint64 { return uint64(a.Item)<<32 | uint64(a.Tag) }

// ActionFromKey is the inverse of Action.Key.
func ActionFromKey(k uint64) Action {
	return Action{Item: ItemID(k >> 32), Tag: TagID(k & 0xffffffff)}
}

// Profile is the append-only tagging history of one user.
//
// Besides the log, a profile keeps an item chain index: itemsSorted lists
// the distinct items in ascending order, chains (aligned with it) holds the
// log positions of the first and last action on each item, and next links
// every log position to the next position on the same item.
// Add only ever appends to a chain, so every chain is ascending and a
// prefix view of the first n actions reads each chain up to the first
// position >= n: the index serves every version-prefix Snapshot without
// copying (see ARCHITECTURE.md, "Why step 2 walks item chains").
//
// The zero value is not usable; create profiles with NewProfile. Profile is
// not safe for concurrent mutation; concurrent readers are safe as long as
// no writer is active.
type Profile struct {
	owner UserID
	log   []Action       // append-only action log
	index map[uint64]int // action key -> position in log

	itemsSorted []ItemID // distinct items, ascending
	chains      []chain  // per item, aligned with itemsSorted
	next        []int32  // per log position: next position on the same item, or chainEnd
}

// chain locates one item's actions in the log: the positions of the first
// (head) and last (tail) action on it.
type chain struct{ head, tail int32 }

// chainEnd terminates an item chain. It is larger than any log position, so
// a walk bounded by a snapshot length n (pos < n) also stops at the tail,
// and an item is visible in the first n actions exactly when its head < n.
const chainEnd = math.MaxInt32

// NewProfile returns an empty profile owned by the given user.
func NewProfile(owner UserID) *Profile {
	return &Profile{
		owner: owner,
		index: make(map[uint64]int),
	}
}

// Owner returns the user owning this profile.
func (p *Profile) Owner() UserID { return p.owner }

// Len returns the number of tagging actions in the profile. The paper calls
// this the "length" of the profile and uses it as the storage metric.
func (p *Profile) Len() int { return len(p.log) }

// Version returns a monotonically increasing version number, incremented by
// every successful Add. Because profiles are append-only the version equals
// the profile length; replicas compare versions to detect staleness.
func (p *Profile) Version() int { return len(p.log) }

// NumItems returns the number of distinct items tagged in the profile.
func (p *Profile) NumItems() int { return len(p.itemsSorted) }

// itemIndex returns the position of item in itemsSorted[from:] (offset by
// from) and whether it is there; when absent, the position is where it
// would be inserted. Callers walking an ascending item list pass the
// previous result as from, narrowing each search.
//
//p3q:hotpath
func (p *Profile) itemIndex(from int, item ItemID) (int, bool) {
	i, ok := slices.BinarySearch(p.itemsSorted[from:], item)
	return from + i, ok
}

// Add records the action (item, tag). It returns false if the exact action
// was already present (a user tagging the same item with the same tag twice
// is a no-op, as in delicious).
func (p *Profile) Add(item ItemID, tag TagID) bool {
	a := Action{Item: item, Tag: tag}
	k := a.Key()
	if _, dup := p.index[k]; dup {
		return false
	}
	pos := len(p.log)
	if pos >= chainEnd {
		panic("tagging: profile log exceeds the chain index's int32 positions")
	}
	p.index[k] = pos
	p.log = append(p.log, a)
	p.next = append(p.next, chainEnd)
	if i, ok := p.itemIndex(0, item); ok {
		p.next[p.chains[i].tail] = int32(pos)
		p.chains[i].tail = int32(pos)
	} else {
		p.itemsSorted = slices.Insert(p.itemsSorted, i, item)
		p.chains = slices.Insert(p.chains, i, chain{head: int32(pos), tail: int32(pos)})
	}
	return true
}

// AddAll records every action in the list, skipping duplicates, and returns
// the number actually added.
func (p *Profile) AddAll(actions []Action) int {
	n := 0
	for _, a := range actions {
		if p.Add(a.Item, a.Tag) {
			n++
		}
	}
	return n
}

// Has reports whether the profile contains the exact action (item, tag).
func (p *Profile) Has(item ItemID, tag TagID) bool {
	_, ok := p.index[Action{Item: item, Tag: tag}.Key()]
	return ok
}

// HasItem reports whether the profile contains any action on the item.
func (p *Profile) HasItem(item ItemID) bool {
	_, ok := p.itemIndex(0, item)
	return ok
}

// Actions returns the action log. The returned slice must not be modified;
// it aliases the profile's internal storage.
func (p *Profile) Actions() []Action { return p.log }

// Items returns the distinct items in the profile, in ascending order. The
// returned slice aliases the profile's internal storage and must not be
// modified.
//
//p3q:hotpath
func (p *Profile) Items() []ItemID { return p.itemsSorted }

// TagsFor returns the tags the owner used on the item, in log order.
func (p *Profile) TagsFor(item ItemID) []TagID {
	i, ok := p.itemIndex(0, item)
	if !ok {
		return nil
	}
	var out []TagID
	for pos := p.chains[i].head; pos != chainEnd; pos = p.next[pos] {
		out = append(out, p.log[pos].Tag)
	}
	return out
}

// Snapshot returns a point-in-time view of the profile containing its first
// Version() actions. The snapshot stays consistent even if the owner keeps
// appending actions afterwards.
func (p *Profile) Snapshot() Snapshot { return Snapshot{p: p, n: len(p.log)} }

// SnapshotAt returns a view of the first n actions. n is clamped to
// [0, Len()].
func (p *Profile) SnapshotAt(n int) Snapshot {
	if n < 0 {
		n = 0
	}
	if n > len(p.log) {
		n = len(p.log)
	}
	return Snapshot{p: p, n: n}
}

// CommonScore returns the P3Q similarity score between this profile and the
// snapshot: the number of tagging actions present in both,
//
//	Score(ui, uj) = |Profile(ui) ∩ Profile(uj)|.
//
// The score is symmetric: p.CommonScore(q.Snapshot()) equals
// q.CommonScore(p.Snapshot()).
func (p *Profile) CommonScore(other Snapshot) int {
	// Iterate over the smaller side.
	if other.Len() < len(p.log) {
		score := 0
		for _, a := range other.Actions() {
			if p.Has(a.Item, a.Tag) {
				score++
			}
		}
		return score
	}
	score := 0
	for _, a := range p.log {
		if other.Has(a.Item, a.Tag) {
			score++
		}
	}
	return score
}

// CommonItems returns the items present in both this profile and the
// snapshot, in ascending order.
func (p *Profile) CommonItems(other Snapshot) []ItemID {
	var out []ItemID
	for _, it := range p.itemsSorted {
		if other.HasItem(it) {
			out = append(out, it)
		}
	}
	return out
}

// String implements fmt.Stringer for debugging.
func (p *Profile) String() string {
	return fmt.Sprintf("profile(user=%d actions=%d items=%d)", p.owner, len(p.log), len(p.itemsSorted))
}

// Snapshot is an immutable point-in-time view of a profile: its first n
// actions. Snapshots are values; copying them is cheap (two words). A
// snapshot taken from a profile remains valid and unchanged while the owner
// appends more actions, which is exactly the semantics of a replica stored
// at a remote node in P3Q.
type Snapshot struct {
	p *Profile
	n int
}

// Owner returns the user owning the underlying profile.
func (s Snapshot) Owner() UserID { return s.p.owner }

// Len returns the number of actions visible in the snapshot.
func (s Snapshot) Len() int { return s.n }

// Version returns the profile version the snapshot was taken at, equal to
// Len. Comparing against the owner's current Version detects staleness.
func (s Snapshot) Version() int { return s.n }

// Valid reports whether the snapshot refers to an actual profile (the zero
// Snapshot is not valid).
func (s Snapshot) Valid() bool { return s.p != nil }

// Actions returns the visible prefix of the action log. The returned slice
// must not be modified.
func (s Snapshot) Actions() []Action { return s.p.log[:s.n] }

// Has reports whether the snapshot contains the exact action.
func (s Snapshot) Has(item ItemID, tag TagID) bool {
	pos, ok := s.p.index[Action{Item: item, Tag: tag}.Key()]
	return ok && pos < s.n
}

// HasItem reports whether the snapshot contains any action on the item:
// the item's chain starts inside the visible prefix.
func (s Snapshot) HasItem(item ItemID) bool {
	i, ok := s.p.itemIndex(0, item)
	return ok && int(s.p.chains[i].head) < s.n
}

// Items returns the distinct items visible in the snapshot, ascending. A
// full snapshot returns the profile's own item memo, which must not be
// modified; a partial one returns a fresh slice.
func (s Snapshot) Items() []ItemID {
	if s.n == len(s.p.log) {
		return s.p.Items()
	}
	var out []ItemID
	for i, it := range s.p.itemsSorted {
		if int(s.p.chains[i].head) < s.n {
			out = append(out, it)
		}
	}
	return out
}

// AppendActionsOnItems appends the snapshot's actions on the given items,
// in log order, into a caller-owned buffer (reusing its capacity) and
// returns it. This is the payload of the second step of the 3-step profile
// exchange ("require her tagging actions for the common items").
//
// It walks only the chains of the requested items: the chain positions are
// collected into dst first (parked in the Item field) and sorted, which
// restores log order across chains and lets a repeated item be dropped,
// then replaced by the actions they point at. Nothing is allocated once
// the buffer is warm.
//
//p3q:hotpath
func (s Snapshot) AppendActionsOnItems(dst []Action, items []ItemID) []Action {
	dst = dst[:0]
	for _, it := range items {
		i, ok := s.p.itemIndex(0, it)
		if !ok {
			continue
		}
		for pos := int(s.p.chains[i].head); pos < s.n; pos = int(s.p.next[pos]) {
			dst = append(dst, Action{Item: ItemID(pos)})
		}
	}
	slices.SortFunc(dst, func(a, b Action) int { return cmp.Compare(a.Item, b.Item) })
	dst = slices.CompactFunc(dst, func(a, b Action) bool { return a.Item == b.Item })
	for i := range dst {
		dst[i] = s.p.log[dst[i].Item]
	}
	return dst
}

// ScoreOnItems is step 2 of the exchange scored in one pass: received is
// the number of the snapshot's actions on the given items (the length of
// AppendActionsOnItems), and score is how many of those actions holder
// also has. items must be ascending and distinct. Each item's snapshot
// chain is matched against holder's own chain for the same item, so no
// action is looked up by hash.
//
//p3q:hotpath
func (s Snapshot) ScoreOnItems(holder *Profile, items []ItemID) (received, score int) {
	at, hat := 0, 0
	for _, it := range items {
		i, ok := s.p.itemIndex(at, it)
		at = i
		if !ok || int(s.p.chains[i].head) >= s.n {
			continue
		}
		hi, hok := holder.itemIndex(hat, it)
		hat = hi
		for pos := int(s.p.chains[i].head); pos < s.n; pos = int(s.p.next[pos]) {
			received++
			if !hok {
				continue
			}
			tag := s.p.log[pos].Tag
			for q := holder.chains[hi].head; q != chainEnd; q = holder.next[q] {
				if holder.log[q].Tag == tag {
					score++
					break
				}
			}
		}
	}
	return received, score
}
