package main

import (
	"bytes"
	"time"

	"p3q/internal/core"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/wire"
)

// Kernel timings call a public kernel on inputs taken from the workload's
// own state after its timed phase, repeating the whole input set until
// kernelBudget has elapsed, and report the median per-call time over the
// repetitions.
const kernelBudget = 150 * time.Millisecond

// timeKernel runs pass (which makes calls kernel calls) repeatedly and
// returns the median time per call in nanoseconds.
func timeKernel(calls int, pass func()) float64 {
	if calls == 0 {
		return 0
	}
	var per samples
	start := time.Now()
	for len(per) < 3 || time.Since(start) < kernelBudget {
		t := time.Now()
		pass()
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(calls))
	}
	return per.median()
}

// sampledNodes returns every step-th node, the kernels' input sample.
func sampledNodes(e *core.Engine, step int) []*core.Node {
	var out []*core.Node
	for u := 0; u < e.Users(); u += step {
		out = append(out, e.Node(tagging.UserID(u)))
	}
	return out
}

// reportLazyKernels times the two kernels of lazy-mode integration on the
// sampled nodes: Snapshot.AppendActionsOnItems over each stored replica's
// items in common with the node's profile (step 2 of the exchange), and
// bloom.Filter.Test of every profile item against each personal-network
// digest (the common-item filter).
func reportLazyKernels(r *report, e *core.Engine, step int) {
	type pair struct {
		snap  tagging.Snapshot
		items []tagging.ItemID
	}
	var pairs []pair
	var probes int
	for _, n := range sampledNodes(e, step) {
		for _, en := range n.PersonalNetwork().StoredEntries() {
			if items := n.Profile().CommonItems(en.Stored); len(items) > 0 {
				pairs = append(pairs, pair{en.Stored, items})
			}
		}
		for _, en := range n.PersonalNetwork().Ranking() {
			if en.Digest != nil {
				probes += len(n.Profile().Items())
			}
		}
	}
	// dst and hits consume the kernels' results, so the calls stay live.
	var dst []tagging.Action
	actions := timeKernel(len(pairs), func() {
		for _, p := range pairs {
			dst = p.snap.AppendActionsOnItems(dst[:0], p.items)
		}
	})
	nodes := sampledNodes(e, step)
	hits := 0
	test := timeKernel(probes, func() {
		for _, n := range nodes {
			items := n.Profile().Items()
			for _, en := range n.PersonalNetwork().Ranking() {
				if en.Digest == nil {
					continue
				}
				for _, it := range items {
					if en.Digest.Items.Test(uint64(it)) {
						hits++
					}
				}
			}
		}
	})
	r.layer("tagging.actions_on_items_ns", actions, "ns")
	r.layer("bloom.test_ns", test, "ns")
	r.note("kernels: %d AppendActionsOnItems inputs, %d bloom probes per pass", len(pairs), probes)
}

// reportNRA replays the partial result lists of captured eager cycles
// through the incremental NRA, one Run per query per cycle in capture
// order, and reports the time per Run and the share of the available
// entries NRA scanned before stopping.
func reportNRA(r *report, caps []*core.EagerCapture, k int) {
	var batches [][][]topk.Entry
	for _, cp := range caps {
		byQuery := map[uint64]int{}
		for i := range cp.Pairs {
			pc := &cp.Pairs[i]
			if !pc.Ok || !pc.Delivered || len(pc.Plist) == 0 {
				continue
			}
			j, ok := byQuery[pc.Qid]
			if !ok {
				j = len(batches)
				byQuery[pc.Qid] = j
				batches = append(batches, nil)
			}
			batches[j] = append(batches[j], pc.Plist)
		}
	}
	var scanned, total int
	for _, b := range batches {
		n := topk.NewNRA(k)
		n.Run(b)
		scanned += n.ScannedEntries()
		total += n.TotalEntries()
	}
	run := timeKernel(len(batches), func() {
		for _, b := range batches {
			topk.NewNRA(k).Run(b)
		}
	})
	r.layer("topk.nra_run_us", run/1e3, "us")
	r.layer("topk.scanned_frac", ratio(float64(scanned), float64(total)), "ratio")
	r.note("kernels: %d NRA runs over %d captured eager cycles", len(batches), len(caps))
}

// wireRef converts a capture's digest reference to its wire form.
func wireRef(d core.DigestRef) wire.DigestRef {
	return wire.DigestRef{Owner: d.Owner, Version: uint32(d.Version), Bytes: uint32(d.Bytes)}
}

func wireRefs(ds []core.DigestRef) []wire.DigestRef {
	out := make([]wire.DigestRef, len(ds))
	for i, d := range ds {
		out[i] = wireRef(d)
	}
	return out
}

// lazyMessages builds the lazy-plane messages a daemon speaks for a
// captured lazy cycle: every view exchange, top-layer exchange and direct
// fetch, request and response.
func lazyMessages(cp *core.LazyCapture) []wire.Msg {
	var out []wire.Msg
	for _, v := range cp.Views {
		out = append(out,
			&wire.ViewExchangeReq{Seq: cp.Seq, Initiator: v.Initiator, Partner: v.Partner, Buf: wireRefs(v.BufA)},
			&wire.ViewExchangeResp{Buf: wireRefs(v.BufB)})
	}
	for _, t := range cp.Tops {
		if t.HasPartner {
			out = append(out,
				&wire.TopExchangeReq{Seq: cp.Seq, Initiator: t.Initiator, Partner: t.Partner, Offers: wireRefs(t.OffersA)},
				&wire.TopExchangeResp{Offers: wireRefs(t.OffersB)})
		}
		for _, f := range t.Fetches {
			out = append(out,
				&wire.DirectFetchReq{Seq: cp.Seq, Requester: t.Initiator, Owner: f.Owner},
				&wire.DirectFetchResp{Offer: wireRef(f.Offer)})
		}
	}
	return out
}

// eagerMessages builds the eager-plane messages for a captured eager
// cycle: each gossip's forward, its response and the partial result.
func eagerMessages(cp *core.EagerCapture) []wire.Msg {
	var out []wire.Msg
	for i := range cp.Pairs {
		pc := &cp.Pairs[i]
		if !pc.Ok {
			continue
		}
		out = append(out,
			&wire.EagerForwardReq{Seq: cp.Seq, Qid: pc.Qid, Initiator: pc.Initiator, Dest: pc.Dest,
				Querier: pc.Querier, Tags: pc.Tags, Branch: pc.Branch, Offers: wireRefs(pc.OffersA)},
			&wire.EagerForwardResp{Returned: pc.Returned, Offers: wireRefs(pc.OffersB)})
		if pc.Delivered {
			out = append(out, &wire.PartialResult{Seq: cp.Seq, Qid: pc.Qid, Initiator: pc.Initiator,
				From: pc.Dest, Querier: pc.Querier, FoundOwners: pc.FoundOwners, Entries: pc.Plist},
				&wire.PartialResultAck{})
		}
	}
	return out
}

// reportWire times wire.WriteMsg and wire.ReadMsg per message family and
// reports ns per message. A family with no messages reads 0.
func reportWire(r *report, families map[string][]wire.Msg) error {
	for _, f := range wireFamilies {
		msgs := families[f]
		var buf bytes.Buffer
		var encErr error
		enc := timeKernel(len(msgs), func() {
			buf.Reset()
			w := wire.NewWriter(&buf)
			for _, m := range msgs {
				if err := wire.WriteMsg(w, m); err != nil && encErr == nil {
					encErr = err
				}
			}
		})
		if encErr != nil {
			return encErr
		}
		frames := buf.Bytes()
		var decErr error
		dec := timeKernel(len(msgs), func() {
			rd := wire.NewReader(bytes.NewReader(frames))
			for range msgs {
				if _, err := wire.ReadMsg(rd); err != nil && decErr == nil {
					decErr = err
				}
			}
		})
		if decErr != nil {
			return decErr
		}
		r.layer("wire.encode_ns."+f, enc, "ns")
		r.layer("wire.decode_ns."+f, dec, "ns")
		r.note("kernels: wire family %s: %d messages, %d bytes per pass", f, len(msgs), len(frames))
	}
	return nil
}
