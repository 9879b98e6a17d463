package tagging

import "p3q/internal/bloom"

// Digest is the compact summary of a profile exchanged by the gossip
// protocol before any full profile is transmitted (§2.1). It contains the
// owner's ID, a Bloom filter over the *items* tagged by the owner (tags are
// deliberately omitted to keep digests small), and the profile version at
// encode time, which lets a receiver detect that a profile it already knows
// has changed ("if Digest(ul) does not change", Algorithm 1).
type Digest struct {
	Owner   UserID
	Items   *bloom.Filter
	Version int // profile length when the digest was produced
}

// NewDigest builds the digest of the snapshot with the given Bloom geometry:
// one filter Add per distinct item the snapshot contains. A partial
// snapshot selects its items through the chain heads (an item is visible
// when its chain starts inside the prefix), so no dedupe scratch is needed;
// Bloom adds commute, so the bits and the add count equal those of adding
// the items in log order.
func NewDigest(s Snapshot, mBits, kHashes int) *Digest {
	f := bloom.New(mBits, kHashes)
	for i, it := range s.p.itemsSorted {
		if int(s.p.chains[i].head) < s.n {
			f.Add(itemKey(it))
		}
	}
	return &Digest{Owner: s.Owner(), Items: f, Version: s.Version()}
}

// itemKey widens an item ID into the 64-bit key space of the Bloom filter.
// The filter's own hashing mixes the key, so identity widening suffices.
func itemKey(it ItemID) uint64 { return uint64(it) }

// MightContainItem reports whether the digested profile may contain the
// item. False positives occur at the filter's FPR; false negatives never.
func (d *Digest) MightContainItem(it ItemID) bool {
	return d.Items.Test(itemKey(it))
}

// SharesItemWith reports whether the digested profile appears to share at
// least one item with the given profile. This is the first-step test of
// Algorithm 1: a user with no common item "simply does not qualify" as a
// neighbour candidate.
//
//p3q:hotpath
func (d *Digest) SharesItemWith(p *Profile) bool {
	for _, it := range p.itemsSorted {
		if d.Items.Test(itemKey(it)) {
			return true
		}
	}
	return false
}

// SameAs reports whether two digests describe the same version of the same
// profile. Version equality is decisive because profiles are append-only.
func (d *Digest) SameAs(other *Digest) bool {
	if other == nil {
		return false
	}
	return d.Owner == other.Owner && d.Version == other.Version
}

// SizeBytes returns the wire size of the digest: the Bloom filter plus the
// owner ID and a 4-byte version counter.
func (d *Digest) SizeBytes() int {
	return d.Items.SizeBytes() + UserIDBytes + 4
}
