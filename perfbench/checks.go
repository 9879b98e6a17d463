package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"p3q/internal/core"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/wire"
)

// fingerprint hashes the engine's observable behaviour: every node's
// personal network (members, scores, stored replica versions), the
// traffic ledger, and every query's outcome (state, cycles, results,
// bytes). A change that keeps behaviour keeps it byte-identical.
func fingerprint(e *core.Engine) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for u := 0; u < e.Users(); u++ {
		pn := e.Node(tagging.UserID(u)).PersonalNetwork()
		put(uint64(pn.Len()))
		for _, en := range pn.Ranking() {
			put(uint64(en.ID))
			put(uint64(en.Score))
			stored := -1
			if en.Stored.Valid() {
				stored = en.Stored.Version()
			}
			put(uint64(int64(stored)))
		}
	}
	total := e.Network().Total()
	for i := range total.Msgs {
		put(total.Msgs[i])
		put(total.Bytes[i])
	}
	for _, qr := range e.Queries() {
		put(qr.ID)
		put(uint64(qr.State()))
		put(uint64(qr.Cycles()))
		put(uint64(qr.ProfilesUsed()))
		b := qr.Bytes()
		put(b.Forwarded)
		put(b.Returned)
		put(b.PartialResults)
		put(b.Maintenance)
		for _, en := range qr.Results() {
			put(uint64(en.Item))
			put(uint64(en.Score))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// goldenKey names the input a recorded fingerprint belongs to: the
// workload at its population size, and the seed and measuring time the
// schedule derives from.
type goldenKey struct {
	workload string
	users    int
	seed     uint64
	seconds  int
}

// goldens are the fingerprints recorded at the parent commit for the
// default seed (1) at the BENCHMARK.json run length, and for the tiny
// sizes the self-tests run. Other seeds have no recorded value: their
// fingerprint is printed but not compared.
var goldens = map[goldenKey]string{
	{"sim-lazy", 10000, 1, 20}: "4dba950775a35d839a72e806",
	{"sim-eager", 5000, 1, 20}: "8e097b1838a44fcca19c307e",
	{"sim-lazy", 300, 3, 1}:    "7d806efe51290e386a8dbe83",
	{"sim-eager", 300, 3, 1}:   "7c09a1964c21886747756481",
}

// checkFingerprint compares got against want; an empty want means no
// value is recorded for this input.
func checkFingerprint(got, want string) error {
	if want == "" || got == want {
		return nil
	}
	return fmt.Errorf("behaviour fingerprint %s, recorded %s", got, want)
}

// checkImproved requires lazy gossip to have improved the personal
// networks: their quality after the schedule must exceed the quality
// Bootstrap left. It holds on every seed, unlike the fingerprint.
func checkImproved(final, initial float64) error {
	if final > initial {
		return nil
	}
	return fmt.Errorf("network quality %.4f after the schedule, %.4f after Bootstrap", final, initial)
}

// checkRecall verifies a completed query's results against the
// centralized reference: every reference item must be found.
func checkRecall(got, ref []topk.Entry) error {
	if rc := topk.Recall(got, ref); rc < 1 {
		return fmt.Errorf("recall %.3f against the centralized reference", rc)
	}
	return nil
}

// checkStatus verifies a Done status a daemon reported against the
// replica's run of the same query: identical results, full recall
// (Used == Needed == the replica's needed count) and identical per-query
// bytes.
func checkStatus(st *wire.QueryStatusResp, qr *core.QueryRun) error {
	switch {
	case qr == nil:
		return fmt.Errorf("replica has no such query")
	case !st.Done || !qr.Done():
		return fmt.Errorf("status done=%v, replica done=%v", st.Done, qr.Done())
	case int(st.Used) != qr.ProfilesNeeded() || int(st.Needed) != qr.ProfilesNeeded():
		return fmt.Errorf("used %d of %d, replica needs %d", st.Used, st.Needed, qr.ProfilesNeeded())
	case !sameEntries(st.Results, qr.Results()):
		return fmt.Errorf("results %v, replica %v", st.Results, qr.Results())
	}
	b := qr.Bytes()
	if st.Forwarded != b.Forwarded || st.Returned != b.Returned || st.PartialResults != b.PartialResults || st.Maintenance != b.Maintenance {
		return fmt.Errorf("bytes %d/%d/%d/%d, replica %d/%d/%d/%d",
			st.Forwarded, st.Returned, st.PartialResults, st.Maintenance,
			b.Forwarded, b.Returned, b.PartialResults, b.Maintenance)
	}
	return nil
}

// checkDivergence requires that no daemon saw a wire answer contradict
// its replica.
func checkDivergence(n uint64) error {
	if n != 0 {
		return fmt.Errorf("daemons recorded %d divergences", n)
	}
	return nil
}

func sameEntries(a, b []topk.Entry) bool {
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
