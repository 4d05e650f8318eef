package netsim

import (
	"net/netip"
	"slices"
	"sort"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/rpki"
	"zombiescope/internal/topology"
)

// Local preference values derived from the relationship a route was
// learned over, implementing the Gao–Rexford preference ordering.
const (
	prefLocal    = 1000
	prefCustomer = 300
	prefPeer     = 200
	prefProvider = 100
)

// route is one path for one prefix as stored in an Adj-RIB-In (or the
// local RIB for originated prefixes).
type route struct {
	path bgp.ASPath // as received: the sender's ASN leads; empty for local
	from bgp.ASN    // 0 for locally originated
	pref int
	agg  *bgp.Aggregator
}

func aggEqual(a, b *bgp.Aggregator) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func routesEqual(a, b *route) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.from == b.from && a.path.Equal(b.path) && aggEqual(a.agg, b.agg)
}

// exported remembers what was last advertised on a session, to suppress
// duplicate announcements and to know whether a withdrawal is owed.
type exported struct {
	path bgp.ASPath
	agg  *bgp.Aggregator
}

// link is one session of a router as the static tables see it: the
// neighbor, what the neighbor is to the router, the propagation delay
// toward it, and the router's own index in the neighbor's links. It
// depends only on the graph and the seed.
type link struct {
	to    bgp.ASN
	rel   topology.Relationship
	rev   int
	delay time.Duration
}

// buildLinks computes every AS's links, in ascending neighbor order, once
// per graph and seed; all shards of a Sharded share them read-only.
func buildLinks(g *topology.Graph, cfg Config) map[bgp.ASN][]link {
	out := make(map[bgp.ASN][]link, g.Len())
	for _, asn := range g.ASNs() {
		ns := g.AS(asn).Neighbors()
		ls := make([]link, len(ns))
		for i, n := range ns {
			ls[i] = link{to: n, rel: g.Relationship(asn, n), delay: cfg.linkDelay(asn, n)}
		}
		out[asn] = ls
	}
	for asn, ls := range out {
		for i := range ls {
			ls[i].rev = linkIndex(out[ls[i].to], asn)
		}
	}
	return out
}

// linkIndex returns the index of the link toward n, or -1 when there is
// none.
func linkIndex(ls []link, n bgp.ASN) int {
	i := sort.Search(len(ls), func(i int) bool { return ls[i].to >= n })
	if i == len(ls) || ls[i].to != n {
		return -1
	}
	return i
}

// prefixRIB is everything one router holds for one prefix. in and out are
// indexed like the router's links and allocated on first use. An entry
// lives exactly while best is set: recompute drops it once no route is
// selected, after export has withdrawn everything out and coll held.
type prefixRIB struct {
	local *route
	best  *route
	in    []*route   // Adj-RIB-In
	nin   int        // non-nil entries of in
	out   []exported // Adj-RIB-Out: what each neighbor was last sent
	// coll is what the AS last advertised toward its collectors; the
	// same decision is sent on every session of the AS.
	coll exported
}

// sent reports whether e holds an advertisement: an exported path always
// carries at least the exporting AS.
func (e exported) sent() bool { return e.path.Segments != nil }

type router struct {
	sim   *Simulator
	asn   bgp.ASN
	links []link    // shared with every shard
	peers []*router // this shard's router behind each link
	// fifo holds, per address family (AFI-1) and link, the instant (Unix
	// ns) of the last delivery scheduled on it; nil until the first send.
	fifo [2][]int64

	rib map[netip.Prefix]*prefixRIB // nil until the first entry

	// Optional timing state (see timers.go); nil until first use.
	mrai map[mraiKey]*mraiState
	rfd  map[rfdKey]*rfdState
}

func (r *router) prefFor(i int) int {
	switch r.links[i].rel {
	case topology.RelCustomer:
		return prefCustomer
	case topology.RelPeer:
		return prefPeer
	default:
		return prefProvider
	}
}

// entry returns p's RIB entry, creating it.
func (r *router) entry(p netip.Prefix) *prefixRIB {
	e := r.rib[p]
	if e == nil {
		if r.rib == nil {
			r.rib = make(map[netip.Prefix]*prefixRIB)
		}
		e = &prefixRIB{}
		r.rib[p] = e
	}
	return e
}

// originate installs a locally originated route and propagates it.
func (r *router) originate(p netip.Prefix, agg *bgp.Aggregator) {
	e := r.entry(p)
	e.local = &route{from: 0, pref: prefLocal, agg: agg}
	r.recompute(p, e)
}

// withdrawOrigin removes the locally originated route.
func (r *router) withdrawOrigin(p netip.Prefix) {
	e := r.rib[p]
	if e == nil || e.local == nil {
		return
	}
	e.local = nil
	r.recompute(p, e)
}

// receiveAnnounce handles an announcement arriving over link i.
func (r *router) receiveAnnounce(i int, p netip.Prefix, path bgp.ASPath, agg *bgp.Aggregator) {
	from := r.links[i].to
	// RFC 4271 loop detection: a path containing our ASN is treated as a
	// withdrawal of any previous route from that neighbor.
	if path.Contains(r.asn) {
		r.removeAdjIn(i, p)
		return
	}
	// Route flap damping: suppressed routes are not installed.
	if r.rfdSuppressed(from, p) {
		r.removeAdjIn(i, p)
		return
	}
	// Origin validation at import.
	if reg := r.sim.cfg.ROA; reg != nil {
		policy := r.sim.rov[r.asn]
		if origin, ok := path.Origin(); ok {
			v := reg.Validate(r.sim.now, p, origin)
			if !policy.AcceptAtImport(v) {
				r.removeAdjIn(i, p)
				return
			}
		}
	}
	e := r.entry(p)
	if e.in == nil {
		e.in = make([]*route, len(r.links))
	}
	old := e.in[i]
	if old == nil {
		e.nin++
	} else if old.path.Equal(path) && aggEqual(old.agg, agg) {
		return // duplicate announcement
	}
	e.in[i] = &route{path: path, from: from, pref: r.prefFor(i), agg: agg}
	r.recompute(p, e)
}

// receiveWithdraw handles a withdrawal arriving over link i.
func (r *router) receiveWithdraw(i int, p netip.Prefix) {
	r.rfdPenalize(r.links[i].to, p)
	if e := r.rib[p]; e != nil && r.sim.faults.ribStuck(r.asn, p) {
		r.ghostWithdraw(p, e)
		return
	}
	r.removeAdjIn(i, p)
}

// ghostWithdraw models the stuck-RIB fault: the router tells its neighbors
// the route is gone but keeps it installed, priming a later resurrection.
func (r *router) ghostWithdraw(p netip.Prefix, e *prefixRIB) {
	for i := range e.out {
		if e.out[i].sent() {
			e.out[i] = exported{}
			r.sendWithdraw(i, p)
		}
	}
	if e.coll.sent() {
		e.coll = exported{}
		r.sendCollectorWithdraw(p)
	}
}

func (r *router) removeAdjIn(i int, p netip.Prefix) {
	e := r.rib[p]
	if e == nil || e.in == nil || e.in[i] == nil {
		return
	}
	e.in[i] = nil
	e.nin--
	r.recompute(p, e)
}

// selectBest runs the decision process over e. better is a total order
// (from is unique per candidate), so the walk order does not matter.
func selectBest(e *prefixRIB) *route {
	best := e.local
	if e.nin == 0 {
		return best
	}
	for _, rt := range e.in {
		if rt != nil && better(rt, best) {
			best = rt
		}
	}
	return best
}

// better reports whether a should replace b: higher preference, then
// shorter AS path, then lowest neighbor ASN.
func better(a, b *route) bool {
	if b == nil {
		return true
	}
	if a.pref != b.pref {
		return a.pref > b.pref
	}
	al, bl := a.path.Length(), b.path.Length()
	if al != bl {
		return al < bl
	}
	return a.from < b.from
}

func (r *router) recompute(p netip.Prefix, e *prefixRIB) {
	nb := selectBest(e)
	if !routesEqual(e.best, nb) {
		e.best = nb
		r.export(p, e)
	}
	if nb == nil {
		delete(r.rib, p)
	}
}

// exportAllowed applies the valley-free export rule over link i: routes
// learned from customers (or originated locally) go everywhere; routes
// learned from peers or providers go only to customers.
func (r *router) exportAllowed(b *route, i int) bool {
	l := &r.links[i]
	if b.from == l.to {
		return false
	}
	if b.from == 0 || b.pref == prefCustomer {
		return true
	}
	return l.rel == topology.RelCustomer
}

func (r *router) exportedRoute(b *route) exported {
	return exported{path: b.path.Prepend(r.asn), agg: b.agg}
}

// export sends e.best's consequences to every neighbor and the
// collectors. The prepended path is built at most once and shared by every
// session: paths are never mutated after Prepend.
func (r *router) export(p netip.Prefix, e *prefixRIB) {
	b := e.best
	var x exported
	for i := range r.links {
		var cur exported
		if e.out != nil {
			cur = e.out[i]
		}
		if b != nil && r.exportAllowed(b, i) {
			if !x.sent() {
				x = r.exportedRoute(b)
			}
			if cur.sent() && cur.path.Equal(x.path) && aggEqual(cur.agg, x.agg) {
				continue
			}
			if e.out == nil {
				e.out = make([]exported, len(r.links))
			}
			e.out[i] = x
			r.sendAnnounceMRAI(i, p, x)
		} else if cur.sent() {
			e.out[i] = exported{}
			r.cancelMRAI(i, p)
			r.sendWithdraw(i, p)
		}
	}
	if len(r.sim.collSessions[r.asn]) == 0 {
		return
	}
	if b != nil {
		if !x.sent() {
			x = r.exportedRoute(b)
		}
		if e.coll.sent() && e.coll.path.Equal(x.path) && aggEqual(e.coll.agg, x.agg) {
			return
		}
		e.coll = x
		r.sendCollectorAnnounce(p, x)
	} else if e.coll.sent() {
		e.coll = exported{}
		r.sendCollectorWithdraw(p)
	}
}

// deliverAt returns when a message sent now over link i arrives: after the
// link's delay, FIFO-ordered behind the previous delivery of p's address
// family on that link, as BGP's TCP transport orders it.
func (r *router) deliverAt(i int, p netip.Prefix) time.Time {
	af := bgp.PrefixAFI(p) - 1
	if r.fifo[af] == nil {
		r.fifo[af] = make([]int64, len(r.links))
	}
	at := r.sim.now.Add(r.links[i].delay).UnixNano()
	if last := r.fifo[af][i]; last != 0 && at <= last {
		at = last + int64(time.Millisecond)
	}
	r.fifo[af][i] = at
	return time.Unix(0, at)
}

func (r *router) sendAnnounce(i int, p netip.Prefix, e exported) {
	s := r.sim
	s.stats.MessagesSent++
	s.schedule(r.deliverAt(i, p), func() {
		to := r.peers[i]
		if s.faults.dropLinkMessage(r.asn, to.asn, p, false, s.now) {
			s.stats.MessagesDropped++
			return
		}
		to.receiveAnnounce(r.links[i].rev, p, e.path, e.agg)
	})
}

func (r *router) sendWithdraw(i int, p netip.Prefix) {
	s := r.sim
	s.stats.MessagesSent++
	s.schedule(r.deliverAt(i, p), func() {
		to := r.peers[i]
		if s.faults.dropLinkMessage(r.asn, to.asn, p, true, s.now) {
			s.stats.MessagesDropped++
			return
		}
		to.receiveWithdraw(r.links[i].rev, p)
	})
}

func (r *router) sendCollectorAnnounce(p netip.Prefix, e exported) {
	s := r.sim
	peer := r.asn
	for _, sess := range s.collSessions[peer] {
		sess := sess
		delay := s.collectorSessionDelay(sess)
		s.stats.MessagesSent++
		s.schedule(s.now.Add(delay), func() {
			if s.faults.dropCollectorMessage(peer, p, false, s.now) {
				s.stats.MessagesDropped++
				return
			}
			s.stats.CollectorRecords++
			s.sinkOrNop().PeerAnnounce(s.now, sess, p, RouteAttrs{Path: e.path, Aggregator: e.agg})
		})
	}
}

func (r *router) sendCollectorWithdraw(p netip.Prefix) {
	s := r.sim
	peer := r.asn
	for _, sess := range s.collSessions[peer] {
		sess := sess
		delay := s.collectorSessionDelay(sess)
		s.stats.MessagesSent++
		s.schedule(s.now.Add(delay), func() {
			if s.faults.dropCollectorMessage(peer, p, true, s.now) {
				s.stats.MessagesDropped++
				return
			}
			s.stats.CollectorRecords++
			s.sinkOrNop().PeerWithdraw(s.now, sess, p)
		})
	}
}

// flushFrom drops everything learned over link i and forgets what was
// sent on it (session teardown).
func (r *router) flushFrom(i int) {
	var affected []netip.Prefix
	for p, e := range r.rib {
		if e.out != nil {
			e.out[i] = exported{}
		}
		if e.in != nil && e.in[i] != nil {
			affected = append(affected, p)
		}
	}
	slices.SortFunc(affected, comparePrefix)
	for _, p := range affected {
		e := r.rib[p]
		e.in[i] = nil
		e.nin--
		r.recompute(p, e)
	}
}

// readvertiseTo replays the full Adj-RIB-Out over link i after a session
// (re-)establishment. This is the resurrection vector: a stuck best route
// is advertised as if new.
func (r *router) readvertiseTo(i int) {
	for _, p := range sortedPrefixes(r.rib) {
		e := r.rib[p]
		if !r.exportAllowed(e.best, i) {
			continue
		}
		x := r.exportedRoute(e.best)
		if e.out == nil {
			e.out = make([]exported, len(r.links))
		}
		e.out[i] = x
		r.sendAnnounce(i, p, x)
	}
}

// revalidate re-runs origin validation over the Adj-RIB-In and evicts
// routes that have become invalid (ROV-enforcing ASes after a ROA change).
func (r *router) revalidate() {
	reg := r.sim.cfg.ROA
	if reg == nil {
		return
	}
	var evict []struct {
		p netip.Prefix
		i int
	}
	for _, p := range sortedPrefixes(r.rib) {
		for i, rt := range r.rib[p].in {
			if rt == nil {
				continue
			}
			origin, ok := rt.path.Origin()
			if !ok {
				continue
			}
			if reg.Validate(r.sim.now, p, origin) == rpki.Invalid {
				evict = append(evict, struct {
					p netip.Prefix
					i int
				}{p, i})
			}
		}
	}
	for _, e := range evict {
		r.removeAdjIn(e.i, e.p)
	}
}

// clearRoutes drops all learned routes for matching prefixes (operator
// intervention on a stuck router) and propagates the consequences.
func (r *router) clearRoutes(match PrefixMatcher) {
	for _, p := range sortedPrefixes(r.rib) {
		e := r.rib[p]
		if e.nin == 0 || !matches(match, p) {
			continue
		}
		e.in, e.nin = nil, 0
		r.recompute(p, e)
	}
}
