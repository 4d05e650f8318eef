package zombie

import (
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/obs"
)

// This file is the batched columnar detection kernel. The oracle's
// row-sweep evaluator (evalInterval, refstore_test.go) asks "state of (peer,
// prefix) at t?" once per (interval, peer) and re-walks the pair's event
// span from the start every time — O(intervals × peers × events). The
// columnar kernel inverts the loop: it sweeps the event arena once in
// span-index (pair-key) order and, per span, folds the pair's state forward
// through ALL of the prefix's query instants in one pass with a resumable
// merge cursor. Scratch (per-interval state slots) is reused across spans;
// the per-(interval, peer) decision is the shared peerDecision.
//
// Determinism of the assembly: pair keys ascend peer-major, so for any
// fixed interval (one prefix) the spans of that prefix are visited in
// ascending peer order — the same order evalInterval's peer loop appends
// in. Peers with no events for a prefix contribute nothing in either
// kernel (no pair events means never Present, and session events alone
// cannot create presence), so skipping absent pairs is exact.

// pairQuery is one state query of a prefix's plan.
type pairQuery struct {
	slot int  // index into the prefix's interval list
	pre  bool // query at WithdrawAt (RecordPaths) instead of checkAt
	at   time.Time
}

// prefixPlan is the per-prefix query schedule, shared read-only by every
// span of that prefix.
type prefixPlan struct {
	ivs     []int       // interval indexes, in report order
	queries []pairQuery // sorted ascending by at, so one cursor pass answers all
}

// stateCursor is THE (time, order) merge of a pair's event stream with its
// peer's session stream, folded resumably into the running State: advance
// serves successive query instants, step the sweeps that look at every
// event. An empty session stream is the IgnoreSessionState / legacy
// looking-glass reconstruction. The streams are packed rows of h; a row is
// decoded only at the moment it is folded.
type stateCursor struct {
	h         *History
	evs, sess []row
	i, j      int
	ev        histEvent // the event folded last
	st        State
}

// peek returns the merge's next row (nil when both streams are exhausted)
// and the stream position to bump to consume it.
func (c *stateCursor) peek() (*row, *int) {
	switch {
	case c.j < len(c.sess) && (c.i >= len(c.evs) || compareRows(c.sess[c.j], c.evs[c.i]) < 0):
		return &c.sess[c.j], &c.j
	case c.i < len(c.evs):
		return &c.evs[c.i], &c.i
	}
	return nil, nil
}

// take consumes the row peek returned: decodes it and folds it into the
// state. The decoded event is valid until the next take.
func (c *stateCursor) take(r *row, pos *int) *histEvent {
	*pos++
	c.h.event(r, &c.ev)
	c.st.fold(&c.ev)
	return &c.ev
}

// step folds the merge's next event into the state and returns it, or nil
// at the end.
func (c *stateCursor) step() *histEvent {
	if r, pos := c.peek(); r != nil {
		return c.take(r, pos)
	}
	return nil
}

// advance folds events strictly before t into the running state and
// returns it. t must not decrease across calls on one cursor.
func (c *stateCursor) advance(t time.Time) State {
	tn := t.UnixNano()
	for r, pos := c.peek(); r != nil && r.at < tn; r, pos = c.peek() {
		c.take(r, pos)
	}
	return c.st
}

// seenInSpan reports whether evs holds an announce in [from, to), using
// the span's (at, order) sort for a binary-searched start.
func seenInSpan(evs []row, from, to time.Time) bool {
	fn, tn := from.UnixNano(), to.UnixNano()
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].at >= fn })
	for i := lo; i < len(evs) && evs[i].at < tn; i++ {
		if evs[i].kind == evAnnounce {
			return true
		}
	}
	return false
}

// planQueries builds the per-prefix query schedules. Intervals of prefixes
// absent from the history contribute nothing in either kernel and get no
// plan.
func (d *Detector) planQueries(h *History, intervals []beacon.Interval) []*prefixPlan {
	plans := make([]*prefixPlan, len(h.prefixes))
	threshold := d.threshold()
	for i, iv := range intervals {
		xi, ok := h.prefixIdx[iv.Prefix]
		if !ok {
			continue
		}
		pl := plans[xi]
		if pl == nil {
			pl = &prefixPlan{}
			plans[xi] = pl
		}
		slot := len(pl.ivs)
		pl.ivs = append(pl.ivs, i)
		if d.RecordPaths {
			pl.queries = append(pl.queries, pairQuery{slot: slot, pre: true, at: iv.WithdrawAt})
		}
		pl.queries = append(pl.queries, pairQuery{slot: slot, at: iv.WithdrawAt.Add(threshold)})
	}
	for _, pl := range plans {
		if pl != nil {
			sort.SliceStable(pl.queries, func(i, j int) bool { return pl.queries[i].at.Before(pl.queries[j].at) })
		}
	}
	return plans
}

// sweepRange folds the spans of pairKeys[lo:hi] into per-interval results.
// st/pre are caller-owned scratch slots reused across spans.
func (d *Detector) sweepRange(h *History, intervals []beacon.Interval, plans []*prefixPlan,
	lo, hi int, results []intervalResult, stScratch, preScratch []State) {
	for ki := lo; ki < hi; ki++ {
		pi, xi := uint32(h.pairKeys[ki]>>32), uint32(h.pairKeys[ki])
		pl := plans[xi]
		if pl == nil {
			continue
		}
		evs := h.spanRows(ki)
		cur := stateCursor{h: h, evs: evs}
		if !d.IgnoreSessionState {
			cur.sess = h.sessRows(pi)
		}
		for _, q := range pl.queries {
			if q.pre {
				preScratch[q.slot] = cur.advance(q.at)
			} else {
				stScratch[q.slot] = cur.advance(q.at)
			}
		}
		peer := h.peers[pi]
		for slot, ivIdx := range pl.ivs {
			iv := intervals[ivIdx]
			res := &results[ivIdx]
			if !res.visible && seenInSpan(evs, iv.AnnounceAt, iv.WithdrawAt) {
				res.visible = true
			}
			var pre State
			if d.RecordPaths {
				pre = preScratch[slot]
			}
			d.peerDecision(peer, iv, stScratch[slot], pre, &res.routes, &res.pathObs)
		}
	}
}

// detectColumnar evaluates every interval with the batched kernel. The
// span sequence is cut into contiguous ranges, one per worker and one
// result set per range, merged in range order — ranges ascend the pair-key
// order, so concatenation reproduces the single-range append order exactly.
func (d *Detector) detectColumnar(h *History, intervals []beacon.Interval, sp *obs.Span) []intervalResult {
	plans := d.planQueries(h, intervals)
	maxIvs := 0
	for _, pl := range plans {
		if pl != nil && len(pl.ivs) > maxIvs {
			maxIvs = len(pl.ivs)
		}
	}
	e := engine(d.Parallelism, sp)
	// At least one range, so an empty history still yields a result per
	// interval.
	nranges := max(min(e.Workers, len(h.pairKeys)), 1)
	ranged := make([][]intervalResult, nranges)
	e.For(nranges, func(r int) {
		lo := r * len(h.pairKeys) / nranges
		hi := (r + 1) * len(h.pairKeys) / nranges
		results := make([]intervalResult, len(intervals))
		st := make([]State, maxIvs)
		pre := make([]State, maxIvs)
		d.sweepRange(h, intervals, plans, lo, hi, results, st, pre)
		ranged[r] = results
	})
	// Merge: per interval, concatenate the ranges' appends in range order
	// and OR the visibility.
	results := ranged[0]
	for _, rr := range ranged[1:] {
		for i := range results {
			results[i].visible = results[i].visible || rr[i].visible
			results[i].routes = append(results[i].routes, rr[i].routes...)
			results[i].pathObs = append(results[i].pathObs, rr[i].pathObs...)
		}
	}
	return results
}
