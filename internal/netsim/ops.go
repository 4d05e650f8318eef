package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// ScheduleAnnounce originates prefix p from origin at time at, carrying
// the given Aggregator attribute (the beacon clock; may be nil).
func (s *Simulator) ScheduleAnnounce(at time.Time, origin bgp.ASN, p netip.Prefix, agg *bgp.Aggregator) error {
	r := s.routers[origin]
	if r == nil {
		return fmt.Errorf("netsim: unknown origin %s", origin)
	}
	s.schedule(at, func() { r.originate(p, agg) })
	return nil
}

// ScheduleWithdraw withdraws a locally originated prefix at time at.
func (s *Simulator) ScheduleWithdraw(at time.Time, origin bgp.ASN, p netip.Prefix) error {
	r := s.routers[origin]
	if r == nil {
		return fmt.Errorf("netsim: unknown origin %s", origin)
	}
	s.schedule(at, func() { r.withdrawOrigin(p) })
	return nil
}

// ScheduleSessionReset flaps the inter-AS session a↔b at time at: both
// sides flush what they learned from the other (propagating withdrawals),
// then re-advertise their current best routes one second later. If one
// side holds a stuck route, the re-advertisement resurrects it. a and b
// must be adjacent.
func (s *Simulator) ScheduleSessionReset(at time.Time, a, b bgp.ASN) error {
	ra, rb := s.routers[a], s.routers[b]
	if ra == nil || rb == nil {
		return fmt.Errorf("netsim: reset references unknown AS (%s, %s)", a, b)
	}
	i := linkIndex(ra.links, b)
	if i < 0 {
		return fmt.Errorf("netsim: reset of %s-%s: the ASes are not adjacent", a, b)
	}
	j := ra.links[i].rev
	s.schedule(at, func() {
		ra.flushFrom(i)
		rb.flushFrom(j)
		s.schedule(s.now.Add(time.Second), func() {
			ra.readvertiseTo(i)
			rb.readvertiseTo(j)
		})
	})
	return nil
}

// ScheduleCollectorSessionReset flaps one collector session at time at:
// the collector sees the session leave and re-enter Established, then the
// peer re-sends its full table on that session.
func (s *Simulator) ScheduleCollectorSessionReset(at time.Time, sess Session) error {
	r := s.routers[sess.PeerAS]
	if r == nil {
		return fmt.Errorf("netsim: unknown collector peer %s", sess.PeerAS)
	}
	s.schedule(at, func() {
		s.sinkOrNop().PeerState(s.now, sess, mrt.StateEstablished, mrt.StateIdle)
		s.stats.CollectorRecords++
		s.schedule(s.now.Add(30*time.Second), func() {
			s.sinkOrNop().PeerState(s.now, sess, mrt.StateActive, mrt.StateEstablished)
			s.stats.CollectorRecords++
			for _, p := range sortedPrefixes(r.rib) {
				entry := r.rib[p]
				e := r.exportedRoute(r.at(entry.best))
				entry.coll = e
				p := p
				s.stats.MessagesSent++
				s.schedule(s.now.Add(s.collectorSessionDelay(sess)), func() {
					s.stats.CollectorRecords++
					s.sinkOrNop().PeerAnnounce(s.now, sess, p, RouteAttrs{Path: e.path, Aggregator: e.agg})
				})
			}
		})
	})
	return nil
}

// ScheduleROARevalidation tells every ROV-enforcing AS to re-validate its
// RIB after a ROA change at time at. Each AS acts after its own
// deterministic delay within rovRevalidateDelay (2h), modelling RPKI
// time-of-flight; non-enforcing and flawed (no-evict) ASes do nothing —
// the behaviour the paper observes after removing its ROA.
func (s *Simulator) ScheduleROARevalidation(at time.Time) {
	for _, asn := range sortedASNs(s.rov) {
		if !s.rov[asn].EvictsOnInvalidation() {
			continue
		}
		r := s.routers[asn]
		if r == nil {
			continue
		}
		jitter := time.Duration(hash64(s.cfg.Seed, uint64(asn), 0x70a) % uint64(rovRevalidateDelay))
		s.schedule(at.Add(jitter), func() { r.revalidate() })
	}
}

// ScheduleClearRoutes simulates operator intervention on a router: all
// learned routes for matching prefixes are dropped at time at and the
// withdrawals propagate normally.
func (s *Simulator) ScheduleClearRoutes(at time.Time, asn bgp.ASN, match PrefixMatcher) error {
	r := s.routers[asn]
	if r == nil {
		return fmt.Errorf("netsim: unknown AS %s", asn)
	}
	s.schedule(at, func() { r.clearRoutes(match) })
	return nil
}

// BestRoute reports the AS path currently selected by asn for p, with the
// leading hop being asn's neighbor (empty path for a locally originated
// route), and whether a route exists.
func (s *Simulator) BestRoute(asn bgp.ASN, p netip.Prefix) (bgp.ASPath, bool) {
	r := s.routers[asn]
	if r == nil || r.rib[p] == nil {
		return bgp.ASPath{}, false
	}
	return r.at(r.rib[p].best).path, true
}

// HasRoute reports whether asn currently has any route for p.
func (s *Simulator) HasRoute(asn bgp.ASN, p netip.Prefix) bool {
	_, ok := s.BestRoute(asn, p)
	return ok
}

// RouteCount returns how many ASes currently have a route for p — a
// visibility measure.
func (s *Simulator) RouteCount(p netip.Prefix) int {
	n := 0
	for _, r := range s.routers {
		if r.rib[p] != nil {
			n++
		}
	}
	return n
}
