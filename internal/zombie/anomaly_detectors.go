package zombie

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"zombiescope/internal/bgp"
)

// Thresholds of the non-zombie detectors.
const (
	// moasMinDuration: a MOAS conflict shorter than this is churn (an
	// origin migration in flight), not a long-lived conflict.
	moasMinDuration = time.Hour
	// hyperMinDuration: a hyper-specific prefix visible for less than
	// this is a blip, not a leak past filters.
	hyperMinDuration = 30 * time.Minute
	// stormMinEvents / stormWindow: a community noise storm is at least
	// this many community changes on one (peer, prefix) within the
	// window.
	stormMinEvents = 8
	stormWindow    = 15 * time.Minute
)

// Anomaly kinds.
const (
	kindZombieOutbreak = "zombie-outbreak"
	kindMOASConflict   = "moas-conflict"
	kindHyperSpecific  = "hyper-specific"
	kindCommunityStorm = "community-storm"
)

// ---------------------------------------------------------------------------
// Zombie outbreaks.

// detectZombies runs the paper's interval-anchored zombie detector: each
// surviving outbreak becomes one finding whose lifespan runs from the
// beacon withdrawal to the detection instant.
func detectZombies(h *History, _ Window, cfg *AnomalyConfig) []Anomaly {
	rep := (&Detector{Threshold: cfg.Threshold, Parallelism: cfg.Parallelism}).DetectFromHistory(h, cfg.Intervals)
	var out []Anomaly
	for _, ob := range rep.Filter(FilterOptions{}) {
		origins := make(map[bgp.ASN]bool)
		for _, r := range ob.Routes {
			if o, ok := r.Path.Origin(); ok {
				origins[o] = true
			}
		}
		out = append(out, Anomaly{
			Kind:    kindZombieOutbreak,
			Prefix:  ob.Prefix,
			Origins: sortedOrigins(origins),
			Start:   ob.Interval.WithdrawAt,
			End:     ob.Interval.WithdrawAt.Add(rep.Threshold),
			Count:   len(ob.Routes),
			Detail:  fmt.Sprintf("%d stuck routes across %d peer ASes", len(ob.Routes), len(ob.PeerASes())),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Long-lived MOAS conflicts.

// detectMOAS finds prefixes concurrently originated by two or more ASes
// for at least moasMinDuration (Sediqi et al., "Live Long and Prosper").
// Per peer it reduces the merged announce/withdraw/session stream to
// ±1 deltas on a per-origin live-route count; the per-prefix sweep then
// applies deltas grouped by record timestamp, so the verdict depends only
// on state at each instant — never on how same-instant records from
// different peers happened to interleave during the build.
func detectMOAS(h *History, win Window, cfg *AnomalyConfig) []Anomaly {
	return sweepPrefixes(h, cfg.Parallelism, func(xi uint32, p netip.Prefix) []Anomaly {
		var deltas []originDelta
		for _, ki := range h.prefixPairs(xi) {
			deltas = appendOriginDeltas(deltas, h, int(ki))
		}
		// A conflict needs two concurrent origins: a prefix whose deltas
		// name one origin (nearly every prefix) is done before the sort.
		if !slices.ContainsFunc(deltas, func(dl originDelta) bool { return dl.origin != deltas[0].origin }) {
			return nil
		}
		slices.SortStableFunc(deltas, func(a, b originDelta) int { return a.at.Compare(b.at) })

		live := make(map[bgp.ASN]int)
		distinct := 0
		inConflict := false
		var start time.Time
		origins := make(map[bgp.ASN]bool)
		var out []Anomaly
		emit := func(end time.Time) {
			if a, ok := clipWindow(start, end, win, moasMinDuration); ok {
				a.Kind = kindMOASConflict
				a.Prefix = p
				a.Origins = sortedOrigins(origins)
				a.Count = len(a.Origins)
				a.Detail = fmt.Sprintf("%d concurrent origins for %v", len(a.Origins), a.Lifespan())
				out = append(out, a)
			}
			origins = make(map[bgp.ASN]bool)
		}
		for i := 0; i < len(deltas); {
			at := deltas[i].at
			// Apply every delta at this instant before judging: the count
			// at t is a fact; the intra-instant order is an artifact.
			for i < len(deltas) && deltas[i].at.Equal(at) {
				dl := deltas[i]
				before := live[dl.origin]
				after := before + dl.delta
				live[dl.origin] = after
				if before == 0 && after > 0 {
					distinct++
				} else if before > 0 && after == 0 {
					distinct--
				}
				i++
			}
			switch {
			case !inConflict && distinct >= 2:
				inConflict = true
				start = at
				collectLive(origins, live)
			case inConflict && distinct >= 2:
				collectLive(origins, live)
			case inConflict && distinct < 2:
				inConflict = false
				emit(at)
			}
		}
		if inConflict {
			emit(win.To)
		}
		return out
	})
}

// ---------------------------------------------------------------------------
// Hyper-specific prefixes.

// detectHyperSpecifics finds prefixes more specific than what transit
// filters conventionally admit (/25–/32 IPv4, /49–/128 IPv6) that stayed
// visible for at least hyperMinDuration. Presence is the union across
// peers, swept with timestamp-grouped deltas like the MOAS sweep.
func detectHyperSpecifics(h *History, win Window, cfg *AnomalyConfig) []Anomaly {
	return sweepPrefixes(h, cfg.Parallelism, func(xi uint32, p netip.Prefix) []Anomaly {
		if !hyperSpecific(p) {
			return nil
		}
		var deltas []presenceDelta
		origins := make(map[bgp.ASN]bool)
		for _, ki := range h.prefixPairs(xi) {
			deltas = appendPresenceDeltas(deltas, h, int(ki), origins)
		}
		if len(deltas) == 0 {
			return nil
		}
		slices.SortStableFunc(deltas, func(a, b presenceDelta) int { return a.at.Compare(b.at) })

		count, peak := 0, 0
		visible := false
		var start time.Time
		var out []Anomaly
		emit := func(end time.Time) {
			if a, ok := clipWindow(start, end, win, hyperMinDuration); ok {
				a.Kind = kindHyperSpecific
				a.Prefix = p
				a.Origins = sortedOrigins(origins)
				a.Count = peak
				a.Detail = fmt.Sprintf("/%d visible at %d peers for %v", p.Bits(), peak, a.Lifespan())
				out = append(out, a)
			}
		}
		for i := 0; i < len(deltas); {
			at := deltas[i].at
			for i < len(deltas) && deltas[i].at.Equal(at) {
				count += deltas[i].delta
				i++
			}
			switch {
			case !visible && count > 0:
				visible = true
				start = at
				peak = count
			case visible && count > 0:
				if count > peak {
					peak = count
				}
			case visible && count == 0:
				visible = false
				emit(at)
			}
		}
		if visible {
			emit(win.To)
		}
		return out
	})
}

// ---------------------------------------------------------------------------
// Community noise storms.

// detectCommunityStorms finds (peer, prefix) sessions whose community
// attribute churns abnormally fast (Krenc et al., "Keep your Communities
// Clean"): at least stormMinEvents community *changes* within
// stormWindow. A change is an announcement whose community set differs
// from the previous announcement's; re-announcements with identical
// communities (beacon refreshes) never count. Storms are not clipped to
// the window.
func detectCommunityStorms(h *History, _ Window, cfg *AnomalyConfig) []Anomaly {
	slots := make([][]Anomaly, len(h.pairKeys))
	eval := func(ki int) {
		key := h.pairKeys[ki]
		pi, xi := uint32(key>>32), uint32(key)
		evs := h.spanRows(ki)

		// Churn instants: announcements whose community set differs from
		// the previous one. Withdrawals do not reset the comparison — a
		// flap that toggles withdraw/announce with stable communities is
		// route noise, not community noise.
		var churn []time.Time
		var prev []bgp.Community
		prevValid := false
		for i := range evs {
			if evs[i].kind != evAnnounce {
				continue
			}
			comms := h.rowComms(&evs[i])
			if prevValid && !slices.Equal(prev, comms) {
				churn = append(churn, evs[i].time())
			}
			prev, prevValid = comms, true
		}

		var out []Anomaly
		runStart, runEnd := -1, -1
		flush := func() {
			if runStart < 0 {
				return
			}
			a := Anomaly{
				Kind:   kindCommunityStorm,
				Prefix: h.prefixes[xi],
				Peer:   h.peers[pi],
				Start:  churn[runStart],
				End:    churn[runEnd],
				Count:  runEnd - runStart + 1,
			}
			a.Detail = fmt.Sprintf("%d community changes in %v", a.Count, a.Lifespan())
			out = append(out, a)
			runStart, runEnd = -1, -1
		}
		for i := 0; i+stormMinEvents-1 < len(churn); i++ {
			if churn[i+stormMinEvents-1].Sub(churn[i]) > stormWindow {
				continue
			}
			if runStart >= 0 && i > runEnd {
				flush()
			}
			if runStart < 0 {
				runStart = i
			}
			runEnd = i + stormMinEvents - 1
		}
		flush()
		slots[ki] = out
	}
	engine(cfg.Parallelism, nil).For(len(h.pairKeys), eval)
	var out []Anomaly
	for _, as := range slots {
		out = append(out, as...)
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared sweep machinery.

// sweepPrefixes runs a per-prefix evaluation over the columnar prefix
// index on the package's worker convention (engine) and concatenates the
// findings in canonical prefix order.
func sweepPrefixes(h *History, parallelism int, eval func(xi uint32, p netip.Prefix) []Anomaly) []Anomaly {
	slots := make([][]Anomaly, len(h.prefixes))
	engine(parallelism, nil).For(len(h.prefixes), func(i int) {
		slots[i] = eval(uint32(i), h.prefixes[i])
	})
	var out []Anomaly
	for _, as := range slots {
		out = append(out, as...)
	}
	return out
}

// hyperSpecific reports whether p is more specific than conventional
// transit filters admit.
func hyperSpecific(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return p.Bits() >= 25
	}
	return p.Bits() >= 49
}

// originDelta is one ±1 change of an origin's live-route count at an
// instant, the unit the MOAS sweep aggregates.
type originDelta struct {
	at     time.Time
	origin bgp.ASN
	delta  int
}

// appendOriginDeltas folds pair ki's merged pair+session stream and emits
// origin count deltas: the peer's vote follows the origin of its present
// route, so an announcement moves it and withdrawals and session downs
// clear it.
func appendOriginDeltas(deltas []originDelta, h *History, ki int) []originDelta {
	c := stateCursor{h: h, evs: h.spanRows(ki), sess: h.sessRows(uint32(h.pairKeys[ki] >> 32))}
	var cur bgp.ASN
	has := false
	for ev := c.step(); ev != nil; ev = c.step() {
		o, ok := cur, has && c.st.Present
		if ev.kind == evAnnounce {
			o, ok = ev.path.Origin()
		}
		if has && !(ok && o == cur) {
			deltas = append(deltas, originDelta{at: ev.at, origin: cur, delta: -1})
		}
		if ok && !(has && o == cur) {
			deltas = append(deltas, originDelta{at: ev.at, origin: o, delta: 1})
		}
		cur, has = o, ok
	}
	return deltas
}

// presenceDelta is one ±1 change of a prefix's visible-peer count.
type presenceDelta struct {
	at    time.Time
	delta int
}

// appendPresenceDeltas folds pair ki's merged pair+session stream and
// emits visibility deltas, collecting announced origins into origins.
func appendPresenceDeltas(deltas []presenceDelta, h *History, ki int, origins map[bgp.ASN]bool) []presenceDelta {
	c := stateCursor{h: h, evs: h.spanRows(ki), sess: h.sessRows(uint32(h.pairKeys[ki] >> 32))}
	present := false
	for ev := c.step(); ev != nil; ev = c.step() {
		if ev.kind == evAnnounce {
			if o, ok := ev.path.Origin(); ok {
				origins[o] = true
			}
		}
		if c.st.Present != present {
			present = c.st.Present
			delta := -1
			if present {
				delta = 1
			}
			deltas = append(deltas, presenceDelta{at: ev.at, delta: delta})
		}
	}
	return deltas
}

// clipWindow intersects [start, end] with the evaluation window and
// applies the minimum-lifespan gate.
func clipWindow(start, end time.Time, win Window, minDur time.Duration) (Anomaly, bool) {
	if !win.From.IsZero() && start.Before(win.From) {
		start = win.From
	}
	if !win.To.IsZero() && end.After(win.To) {
		end = win.To
	}
	if end.Sub(start) < minDur {
		return Anomaly{}, false
	}
	return Anomaly{Start: start, End: end}, true
}

// collectLive adds every origin with a positive live count to set.
func collectLive(set map[bgp.ASN]bool, live map[bgp.ASN]int) {
	for o, n := range live {
		if n > 0 {
			set[o] = true
		}
	}
}

// sortedOrigins flattens an origin set into a sorted slice.
func sortedOrigins(set map[bgp.ASN]bool) []bgp.ASN {
	if len(set) == 0 {
		return nil
	}
	out := make([]bgp.ASN, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
