package zombie

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
)

// This file is the differential oracle: the original map-of-maps history
// store, the original from-scratch state walk and the row-sweep evaluator,
// kept so the harnesses (the 50-seed matrix and the kernel differential in
// diff_test.go, the seal and fold tests) compare the shipped columnar
// store, cursor and kernel against an implementation that shares nothing
// with them beyond recordEvents' track-all decode and peerDecision, plus
// the legacy looking-glass loop (LegacyDetector.detectRows) the shipped
// baseline's kernel run is held to. It is test-only: nothing here is compiled into the
// shipped package, including History's random-access state API (cursor,
// StateAt, SeenAnnounced) that the fold and store tests probe it with.

// referenceHistory is the oracle's history store.
type referenceHistory struct {
	// events per peer per prefix, time-ordered.
	events map[PeerID]map[netip.Prefix][]histEvent
	// session events per peer (downs clear all prefixes), time-ordered.
	session map[PeerID][]histEvent
	peers   []PeerID
}

// buildHistoryReference is BuildHistory over the original store, from a
// plain mrt.Reader loop and a track-all decode of every record into a
// fresh bgp.Scratch: the oracle keeps the events recordEvents hands it, so
// no kept community list may alias a workspace a later record reuses. Slow
// but simple.
func buildHistoryReference(updates map[string][]byte, track TrackSet) (*referenceHistory, error) {
	r := &referenceHistory{
		events:  make(map[PeerID]map[netip.Prefix][]histEvent),
		session: make(map[PeerID][]histEvent),
	}
	names := make([]string, 0, len(updates))
	for name := range updates {
		names = append(names, name)
	}
	sort.Strings(names)
	// The oracle filters the tracked prefixes itself, through the map, so
	// the shipped prepared track set and deferred decode are held to it.
	add := func(peer PeerID, p netip.Prefix, ev histEvent) {
		if track == nil || track[p] {
			r.add(peer, p, ev)
		}
	}
	order := 0
	for _, name := range names {
		rd := mrt.NewReader(bytes.NewReader(updates[name]))
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("zombie: collector %s: %w", name, err)
			}
			order++
			if err := recordEvents(name, order, rec, nil, new(bgp.Scratch), add, r.addSession); err != nil {
				return nil, fmt.Errorf("zombie: collector %s: %w", name, err)
			}
		}
	}
	r.finish()
	return r, nil
}

func (r *referenceHistory) add(peer PeerID, p netip.Prefix, ev histEvent) {
	m := r.events[peer]
	if m == nil {
		m = make(map[netip.Prefix][]histEvent)
		r.events[peer] = m
		r.peers = append(r.peers, peer)
	}
	m[p] = append(m[p], ev)
}

func (r *referenceHistory) addSession(peer PeerID, ev histEvent) {
	r.session[peer] = append(r.session[peer], ev)
	r.touch(peer)
}

func (r *referenceHistory) touch(peer PeerID) {
	if _, ok := r.events[peer]; !ok {
		r.events[peer] = make(map[netip.Prefix][]histEvent)
		r.peers = append(r.peers, peer)
	}
}

// eventLess is the canonical event order: time, then archive position.
func eventLess(a, b histEvent) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.order < b.order
}

func (r *referenceHistory) finish() {
	for _, m := range r.events {
		for _, evs := range m {
			sort.SliceStable(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
		}
	}
	for _, evs := range r.session {
		sort.SliceStable(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
	}
	sort.Slice(r.peers, func(i, j int) bool { return comparePeers(r.peers[i], r.peers[j]) < 0 })
}

// allPeers returns every peer seen in the archives, sorted.
func (r *referenceHistory) allPeers() []PeerID { return r.peers }

func (r *referenceHistory) pairEvents(peer PeerID, p netip.Prefix) []histEvent {
	return r.events[peer][p]
}

func (r *referenceHistory) sessionEvents(peer PeerID) []histEvent { return r.session[peer] }

// SeenAnnounced reports whether any peer announced p within [from, to).
func (r *referenceHistory) SeenAnnounced(p netip.Prefix, from, to time.Time) bool {
	for _, m := range r.events {
		for _, ev := range m[p] {
			if ev.kind == evAnnounce && !ev.at.Before(from) && ev.at.Before(to) {
				return true
			}
		}
	}
	return false
}

// refStateAt is the oracle's state reconstruction: one walk from the start
// of a pair stream and a session stream merged in event order, stopping at
// t. It is deliberately not State.fold / stateCursor.
func refStateAt(evs, sess []histEvent, t time.Time) State {
	var st State
	i, j := 0, 0
	for i < len(evs) || j < len(sess) {
		var ev histEvent
		takeSess := false
		switch {
		case i >= len(evs):
			ev, takeSess = sess[j], true
		case j >= len(sess):
			ev = evs[i]
		default:
			a, b := evs[i], sess[j]
			if b.at.Before(a.at) || (b.at.Equal(a.at) && b.order < a.order) {
				ev, takeSess = b, true
			} else {
				ev = a
			}
		}
		if !ev.at.Before(t) {
			break
		}
		if takeSess {
			j++
			if ev.kind == evSessionDown {
				st = State{LastEvent: ev.at}
			}
			continue
		}
		i++
		st.LastEvent = ev.at
		switch ev.kind {
		case evAnnounce:
			st.Present = true
			st.Path = ev.path
			st.Agg = ev.agg
			st.At = ev.at
		case evWithdraw:
			st.Present = false
			st.Path = bgp.ASPath{}
			st.Agg = nil
		}
	}
	return st
}

// cursor returns a state cursor over (peer, prefix) by identity; without
// sessions it is the looking-glass reconstruction that never saw STATE
// messages. An unknown peer or prefix folds nothing.
func (h *History) cursor(peer PeerID, p netip.Prefix, sessions bool) stateCursor {
	c := stateCursor{h: h}
	i, okPeer := slices.BinarySearchFunc(h.peers, peer, comparePeers)
	if !okPeer {
		return c
	}
	pi := uint32(i)
	if xi, ok := h.prefixIdx[p]; ok {
		if ki, ok := slices.BinarySearch(h.pairKeys, pairKey(pi, xi)); ok {
			c.evs = h.spanRows(ki)
		}
	}
	if sessions {
		c.sess = h.sessRows(pi)
	}
	return c
}

// StateAt reconstructs the state of (peer, prefix) at time t, honoring
// session downs and ignoring events at or after t.
func (h *History) StateAt(peer PeerID, p netip.Prefix, t time.Time) State {
	c := h.cursor(peer, p, true)
	return c.advance(t)
}

// SeenAnnounced reports whether any peer announced p within [from, to).
func (h *History) SeenAnnounced(p netip.Prefix, from, to time.Time) bool {
	xi, ok := h.prefixIdx[p]
	if !ok {
		return false
	}
	for _, ki := range h.prefixPairs(xi) {
		if seenInSpan(h.spanRows(int(ki)), from, to) {
			return true
		}
	}
	return false
}

// rowStore is what the row sweep reads; both stores provide it.
type rowStore interface {
	allPeers() []PeerID
	SeenAnnounced(p netip.Prefix, from, to time.Time) bool
	pairEvents(peer PeerID, p netip.Prefix) []histEvent
	sessionEvents(peer PeerID) []histEvent
}

// allPeers returns every peer seen in the archives, sorted.
func (h *History) allPeers() []PeerID { return h.peers }

// decoded materializes rows as decoded events: the view the oracle's row
// sweep (detectFromHistoryRows) walks. Shipped sweeps never build it — the
// cursor decodes one row at a time.
func (h *History) decoded(rows []row) []histEvent {
	if len(rows) == 0 {
		return nil
	}
	out := make([]histEvent, len(rows))
	for i := range rows {
		h.event(&rows[i], &out[i])
	}
	return out
}

func (h *History) pairEvents(peer PeerID, p netip.Prefix) []histEvent {
	c := h.cursor(peer, p, false)
	return h.decoded(c.evs)
}

func (h *History) sessionEvents(peer PeerID) []histEvent {
	c := h.cursor(peer, netip.Prefix{}, true)
	return h.decoded(c.sess)
}

// evalInterval evaluates one interval by querying every peer's state at
// the check instant, re-walking the pair's events from the start each time.
func (d *Detector) evalInterval(s rowStore, iv beacon.Interval) intervalResult {
	res := intervalResult{visible: s.SeenAnnounced(iv.Prefix, iv.AnnounceAt, iv.WithdrawAt)}
	checkAt := iv.WithdrawAt.Add(d.threshold())
	for _, peer := range s.allPeers() {
		evs, sess := s.pairEvents(peer, iv.Prefix), s.sessionEvents(peer)
		if d.IgnoreSessionState {
			sess = nil
		}
		var pre State
		if d.RecordPaths {
			pre = refStateAt(evs, sess, iv.WithdrawAt)
		}
		d.peerDecision(peer, iv, refStateAt(evs, sess, checkAt), pre, &res.routes, &res.pathObs)
	}
	return res
}

// detectRows is DetectFromHistory by the row sweep.
func (d *Detector) detectRows(s rowStore, intervals []beacon.Interval) *Report {
	sp := obs.StartSpan("zombie.detect")
	sp.SetArg("intervals", len(intervals))
	sp.SetArg("threshold", d.threshold().String())
	sp.SetArg("kernel", "rows")
	defer sp.End()
	start := time.Now()
	results := make([]intervalResult, len(intervals))
	e := &pipeline.Engine{Workers: max(d.Parallelism, 1), Trace: sp}
	e.For(len(intervals), func(i int) {
		results[i] = d.evalInterval(s, intervals[i])
	})
	pipeline.Default.AddIntervals(len(intervals))
	pipeline.Default.ObserveDetect(time.Since(start))
	return d.assemble(refReportPeers(s, intervals), intervals, results)
}

// refReportPeers is History.reportPeers by peer-at-a-time lookups: the
// peers with a session event or an event on an interval's prefix.
func refReportPeers(s rowStore, intervals []beacon.Interval) []PeerID {
	out := []PeerID{}
	for _, peer := range s.allPeers() {
		keep := len(s.sessionEvents(peer)) > 0
		for _, iv := range intervals {
			keep = keep || len(s.pairEvents(peer, iv.Prefix)) > 0
		}
		if keep {
			out = append(out, peer)
		}
	}
	return out
}

// detectFromHistoryRows evaluates the columnar store with the oracle's row
// sweep and state walk: the reference the kernel and the cursor are proven
// bit-identical to. Production callers use DetectFromHistory.
func (d *Detector) detectFromHistoryRows(h *History, intervals []beacon.Interval) *Report {
	return d.detectRows(h, intervals)
}

// detect is Detector.DetectFromHistory over the oracle.
func (r *referenceHistory) detect(d *Detector, intervals []beacon.Interval) *Report {
	return d.detectRows(r, intervals)
}

// sweep is the package-level Sweep over the oracle.
func (r *referenceHistory) sweep(intervals []beacon.Interval, thresholds []time.Duration, opts FilterOptions) []SweepPoint {
	out := make([]SweepPoint, len(thresholds))
	for i, th := range thresholds {
		out[i] = sweepPoint(th, r.detect(&Detector{Threshold: th}, intervals), opts)
	}
	return out
}

// detectLegacy is LegacyDetector.detect over the oracle.
func (r *referenceHistory) detectLegacy(d *LegacyDetector, intervals []beacon.Interval, availability float64) *Report {
	return d.detectRows(refReportPeers(r, intervals), r.SeenAnnounced, func(peer PeerID, p netip.Prefix, t time.Time) State {
		return refStateAt(r.pairEvents(peer, p), nil, t)
	}, intervals, availability)
}

// detectRows is the oracle's legacy decision over any state source: one
// looking-glass query per (interval, peer) at the lagged check instant,
// kept when the check reached the service. LegacyDetector.Detect runs the
// columnar kernel instead and must agree with it bit for bit.
func (d *LegacyDetector) detectRows(peers []PeerID,
	seenAnnounced func(p netip.Prefix, from, to time.Time) bool,
	stateAt func(peer PeerID, p netip.Prefix, t time.Time) State,
	intervals []beacon.Interval, availability float64) *Report {
	rep := &Report{
		Threshold: DefaultThreshold,
		Intervals: intervals,
		Peers:     peers,
	}
	for _, iv := range intervals {
		if seenAnnounced(iv.Prefix, iv.AnnounceAt, iv.WithdrawAt) {
			rep.VisiblePrefixes++
		}
		// The looking glass answers with state as of checkAt minus its lag.
		checkAt := iv.WithdrawAt.Add(DefaultThreshold)
		effective := checkAt.Add(-lookingGlassDelay)
		var routes []Route
		for _, peer := range peers {
			if !d.checkSucceeds(peer, iv, availability) {
				continue // looking glass unreachable for this check
			}
			st := stateAt(peer, iv.Prefix, effective)
			if !st.Present {
				continue
			}
			routes = append(routes, Route{
				Peer:        peer,
				Prefix:      iv.Prefix,
				Interval:    iv,
				Path:        st.Path,
				AnnouncedAt: st.At,
				LastUpdate:  st.LastEvent,
			})
		}
		if len(routes) > 0 {
			rep.Outbreaks = append(rep.Outbreaks, Outbreak{Prefix: iv.Prefix, Interval: iv, Routes: routes})
		}
	}
	return rep
}
