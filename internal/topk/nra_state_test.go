package topk

import (
	"math"
	"runtime"
	"testing"
)

// stateLists builds a stream of partial result lists with overlapping
// items, so the NRA keeps candidates with unresolved bounds mid-stream.
func stateLists() [][]Entry {
	return [][]Entry{
		{{Item: 1, Score: 9}, {Item: 2, Score: 7}, {Item: 3, Score: 2}},
		{{Item: 2, Score: 8}, {Item: 4, Score: 6}, {Item: 1, Score: 1}},
		{{Item: 5, Score: 5}, {Item: 3, Score: 4}, {Item: 4, Score: 3}},
		{{Item: 1, Score: 7}, {Item: 5, Score: 2}, {Item: 6, Score: 1}},
	}
}

func TestNRAStateRestoreContinuesIdentically(t *testing.T) {
	lists := stateLists()
	full := NewNRA(2)
	split := NewNRA(2)
	// Absorb the first half on both operators.
	for _, l := range lists[:2] {
		full.Run([][]Entry{l})
		split.Run([][]Entry{l})
	}
	// Round-trip the split operator through its serializable state.
	restored, err := RestoreNRA(split.State())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.TopK(), full.TopK(); !equalEntries(got, want) {
		t.Fatalf("restored TopK = %v, want %v", got, want)
	}
	// The continuation must match entry for entry, including the scan-cost
	// accounting the stop condition depends on.
	for _, l := range lists[2:] {
		if got, want := restored.Run([][]Entry{l}), full.Run([][]Entry{l}); !equalEntries(got, want) {
			t.Fatalf("restored Run = %v, want %v", got, want)
		}
		if restored.ScannedEntries() != full.ScannedEntries() {
			t.Fatalf("scanned = %d, want %d", restored.ScannedEntries(), full.ScannedEntries())
		}
	}
	if got, want := restored.Drain(), full.Drain(); !equalEntries(got, want) {
		t.Fatalf("restored Drain = %v, want %v", got, want)
	}
}

func TestRestoreNRARejectsIncoherentState(t *testing.T) {
	bad := NRAState{K: 2, Lists: []NRAListState{{Entries: []Entry{{Item: 1, Score: 1}}, Pos: 2}}}
	if _, err := RestoreNRA(bad); err == nil {
		t.Fatal("accepted a cursor past the list end")
	}
	bad = NRAState{K: 2, Cands: []NRACandidateState{{Item: 1, SeenIn: []int{0}}}}
	if _, err := RestoreNRA(bad); err == nil {
		t.Fatal("accepted a candidate seen in a non-existent list")
	}
	bad = NRAState{K: 2, Cands: []NRACandidateState{{Item: 1}, {Item: 1}}}
	if _, err := RestoreNRA(bad); err == nil {
		t.Fatal("accepted duplicate candidates")
	}
}

// TestRestoreNRAHugeKIsCheap guards the checkpoint restorer: K is read
// unbounded from the stream (a u32), so nothing the operator allocates may
// be sized by k. A state with K = MaxUint32 must restore and run with
// memory proportional to its lists, not to k.
func TestRestoreNRAHugeKIsCheap(t *testing.T) {
	lists := stateLists()
	src := NewNRA(math.MaxUint32)
	src.Run(lists[:2])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := RestoreNRA(src.State())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(lists[2:])
	got := n.Drain()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("restoring and running a K=MaxUint32 operator allocated %d bytes", d)
	}
	// Every item is in the top-k, each with its full score.
	if len(got) != 6 || got[0] != (Entry{Item: 1, Score: 17}) {
		t.Fatalf("Drain = %v, want all 6 items led by item 1 at 17", got)
	}
}

func equalEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
