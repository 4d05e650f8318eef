package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"zombiescope/internal/bgp"
)

// Anomaly fault generators: deterministic injections for the adjacent
// routing pathologies the anomaly framework detects. Each generator
// produces exactly one pathology — the cross-scenario false-positive
// matrix in internal/experiments relies on a MOAS flip never looking like
// a zombie, a community storm never looking like a MOAS, and so on.

// ScheduleMOASFlip originates p from a second AS (the hijacker) at time
// at while the legitimate origin keeps announcing it, and withdraws the
// hijack cleanly after hold — a long-lived MOAS conflict with no stuck
// state left behind.
func (s *Simulator) ScheduleMOASFlip(at time.Time, hijacker bgp.ASN, p netip.Prefix, hold time.Duration) error {
	if hold <= 0 {
		return fmt.Errorf("netsim: MOAS flip hold must be positive")
	}
	if err := s.ScheduleAnnounce(at, hijacker, p, nil); err != nil {
		return err
	}
	return s.ScheduleWithdraw(at.Add(hold), hijacker, p)
}

// HyperSpecificSubnets enumerates count subnets of length bits under
// base, in address order — the prefixes a leaking router would deaggregate
// base into.
func HyperSpecificSubnets(base netip.Prefix, bits, count int) ([]netip.Prefix, error) {
	addrBits := base.Addr().BitLen()
	width := bits - base.Bits()
	if width <= 0 || bits > addrBits {
		return nil, fmt.Errorf("netsim: subnet length /%d invalid under %v", bits, base)
	}
	if width < 31 && count > 1<<uint(width) {
		return nil, fmt.Errorf("netsim: %d subnets do not fit in %d bits", count, width)
	}
	out := make([]netip.Prefix, 0, count)
	for i := 0; i < count; i++ {
		a := base.Addr().As16()
		off := 128 - addrBits // v4-mapped addresses sit in the low 32 bits
		for b := 0; b < width; b++ {
			if i&(1<<uint(width-1-b)) != 0 {
				pos := off + base.Bits() + b
				a[pos/8] |= 1 << uint(7-pos%8)
			}
		}
		addr := netip.AddrFrom16(a)
		if base.Addr().Is4() {
			addr = addr.Unmap()
		}
		out = append(out, netip.PrefixFrom(addr, bits))
	}
	return out, nil
}

// ScheduleHyperSpecificLeak makes the leaker AS originate count subnets
// of length bits under base at time at, hold them for hold, then withdraw
// them all cleanly. It returns the leaked prefixes.
func (s *Simulator) ScheduleHyperSpecificLeak(at time.Time, leaker bgp.ASN, base netip.Prefix, bits, count int, hold time.Duration) ([]netip.Prefix, error) {
	if hold <= 0 {
		return nil, fmt.Errorf("netsim: leak hold must be positive")
	}
	subnets, err := HyperSpecificSubnets(base, bits, count)
	if err != nil {
		return nil, err
	}
	for _, p := range subnets {
		if err := s.ScheduleAnnounce(at, leaker, p, nil); err != nil {
			return nil, err
		}
		if err := s.ScheduleWithdraw(at.Add(hold), leaker, p); err != nil {
			return nil, err
		}
	}
	return subnets, nil
}

// ScheduleCommunityStorm makes the peer's collector sessions re-announce
// its current best route for p every period within [start, end), each
// tick tagged with a fresh community value — the attribute churns while
// the route itself never changes. Ticks where the peer holds no route for
// p are skipped silently (the storm cannot out-announce a withdrawal).
func (s *Simulator) ScheduleCommunityStorm(peer bgp.ASN, p netip.Prefix, start, end time.Time, period time.Duration) error {
	r := s.routers[peer]
	if r == nil {
		return fmt.Errorf("netsim: unknown storm peer %s", peer)
	}
	if len(s.collSessions[peer]) == 0 {
		return fmt.Errorf("netsim: storm peer %s has no collector sessions", peer)
	}
	if period <= 0 {
		period = time.Minute
	}
	tick := 0
	for at := start; at.Before(end); at = at.Add(period) {
		tick++
		val := uint16(tick)
		s.schedule(at, func() {
			entry := r.rib[p]
			if entry == nil {
				return
			}
			e := r.exportedRoute(r.at(entry.best))
			comms := []bgp.Community{bgp.NewCommunity(uint16(peer), val)}
			for _, sess := range s.collSessions[peer] {
				sess := sess
				s.stats.MessagesSent++
				s.schedule(s.now.Add(s.collectorSessionDelay(sess)), func() {
					s.stats.CollectorRecords++
					s.sinkOrNop().PeerAnnounce(s.now, sess, p, RouteAttrs{Path: e.path, Aggregator: e.agg, Communities: comms})
				})
			}
		})
	}
	return nil
}
