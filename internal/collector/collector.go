// Package collector models a RIPE RIS-like route collector fleet. Each
// collector maintains BGP sessions with volunteer peer ASes, records every
// UPDATE and session state change as MRT BGP4MP records (the "raw data"
// the paper's methodology insists on), and periodically snapshots every
// peer's routes as TABLE_DUMP_V2 RIB records (the 8-hourly dumps the paper
// uses for lifespan analysis).
//
// The fleet implements netsim.Sink, so it can be attached directly to a
// simulation; the archives it produces are consumed by the zombie
// detector through the mrt package, byte-for-byte like real collector
// output.
package collector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/netsim"
	"zombiescope/internal/obs"
)

// LocalAS is the AS number collectors use on their side of peering
// sessions (RIPE RIS uses AS12654).
const LocalAS bgp.ASN = 12654

type sessionKey struct {
	peerAS bgp.ASN
	peerIP netip.Addr
}

type ribRoute struct {
	attrs     netsim.RouteAttrs
	learnedAt time.Time
}

// Collector is one route collector (e.g. "rrc21").
type Collector struct {
	Name string
	ID   netip.Addr // IPv4 collector BGP ID

	updates bytes.Buffer
	dumps   bytes.Buffer
	uw      *mrt.Writer
	dw      *mrt.Writer

	sessions map[sessionKey]netsim.Session
	state    map[sessionKey]map[netip.Prefix]ribRoute

	seq4, seq6 uint32
	err        error

	// Cached registry children (see metrics.go).
	obsRecords   *obs.Counter
	obsSnapshots *obs.Counter
}

func newCollector(name string) *Collector {
	c := &Collector{
		Name:         name,
		ID:           collectorID(name),
		sessions:     make(map[sessionKey]netsim.Session),
		state:        make(map[sessionKey]map[netip.Prefix]ribRoute),
		obsRecords:   recordsVec.With(name),
		obsSnapshots: snapshotsVec.With(name),
	}
	c.uw = mrt.NewWriter(&c.updates)
	c.dw = mrt.NewWriter(&c.dumps)
	return c
}

// collectorID derives a stable IPv4 router ID from the collector name,
// inside RIPE's 193.0.0.0/16 for flavor.
func collectorID(name string) netip.Addr {
	h := fnv.New32a()
	h.Write([]byte(name))
	v := h.Sum32()
	return netip.AddrFrom4([4]byte{193, 0, byte(v >> 8), byte(v)})
}

// localIP returns the collector-side session address for a family.
func (c *Collector) localIP(afi bgp.AFI) netip.Addr {
	if afi == bgp.AFIIPv4 {
		return c.ID
	}
	id := c.ID.As4()
	var a [16]byte
	a[0], a[1] = 0x20, 0x01
	a[2], a[3] = 0x06, 0x7c
	copy(a[4:8], id[:])
	a[15] = 1
	return netip.AddrFrom16(a)
}

// nextHopFor synthesizes a next hop of the prefix's family for a session.
func nextHopFor(sess netsim.Session, p netip.Prefix) netip.Addr {
	v6 := p.Addr().Is6()
	if v6 == sess.PeerIP.Is6() {
		return sess.PeerIP
	}
	if v6 {
		// IPv6 NLRI on an IPv4-addressed session: derive a v6 next hop
		// from the peer address.
		p4 := sess.PeerIP.As4()
		var a [16]byte
		a[0], a[1] = 0x20, 0x01
		a[2], a[3] = 0x0d, 0xb8
		copy(a[4:8], p4[:])
		a[15] = 0xfe
		return netip.AddrFrom16(a)
	}
	// IPv4 NLRI on an IPv6 session.
	p16 := sess.PeerIP.As16()
	return netip.AddrFrom4([4]byte{192, 0, 2, p16[15]})
}

func (c *Collector) fail(err error) {
	if c.err == nil && err != nil {
		c.err = fmt.Errorf("collector %s: %w", c.Name, err)
	}
}

// Err returns the first write/encode error, if any.
func (c *Collector) Err() error { return c.err }

// UpdatesData returns the raw MRT update archive.
func (c *Collector) UpdatesData() []byte { return c.updates.Bytes() }

// DumpData returns the raw MRT RIB dump archive (all snapshots,
// concatenated; each begins with a PEER_INDEX_TABLE).
func (c *Collector) DumpData() []byte { return c.dumps.Bytes() }

func (c *Collector) session(sess netsim.Session) sessionKey {
	k := sessionKey{peerAS: sess.PeerAS, peerIP: sess.PeerIP}
	if _, ok := c.sessions[k]; !ok {
		c.sessions[k] = sess
	}
	return k
}

func buildUpdate(sess netsim.Session, announce bool, p netip.Prefix, attrs netsim.RouteAttrs) (*bgp.Update, error) {
	u := &bgp.Update{}
	if announce {
		u.Attrs = bgp.PathAttributes{
			HasOrigin:   true,
			Origin:      bgp.OriginIGP,
			ASPath:      attrs.Path,
			Aggregator:  attrs.Aggregator,
			Communities: attrs.Communities,
		}
		if p.Addr().Is4() {
			u.Attrs.NextHop = nextHopFor(sess, p)
			u.NLRI = []netip.Prefix{p}
		} else {
			u.Attrs.MPReach = &bgp.MPReachNLRI{
				AFI:     bgp.AFIIPv6,
				SAFI:    bgp.SAFIUnicast,
				NextHop: nextHopFor(sess, p),
				NLRI:    []netip.Prefix{p},
			}
		}
		return u, nil
	}
	if p.Addr().Is4() {
		u.Withdrawn = []netip.Prefix{p}
	} else {
		u.Attrs.MPUnreach = &bgp.MPUnreachNLRI{
			AFI:       bgp.AFIIPv6,
			SAFI:      bgp.SAFIUnicast,
			Withdrawn: []netip.Prefix{p},
		}
	}
	return u, nil
}

func (c *Collector) writeMessage(at time.Time, sess netsim.Session, u *bgp.Update) {
	data, err := u.AppendWireFormat(nil)
	if err != nil {
		c.fail(err)
		return
	}
	rec := &mrt.BGP4MPMessage{
		Timestamp: at,
		PeerAS:    sess.PeerAS,
		LocalAS:   LocalAS,
		AFI:       sess.AFI,
		PeerIP:    sess.PeerIP,
		LocalIP:   c.localIP(sess.AFI),
		Data:      data,
	}
	if err := c.uw.Write(rec); err != nil {
		c.fail(err)
		return
	}
	c.noteRecord()
}

// PeerAnnounce records an announcement and updates the collector's view.
func (c *Collector) PeerAnnounce(at time.Time, sess netsim.Session, p netip.Prefix, attrs netsim.RouteAttrs) {
	k := c.session(sess)
	u, err := buildUpdate(sess, true, p, attrs)
	if err != nil {
		c.fail(err)
		return
	}
	c.writeMessage(at, sess, u)
	st := c.state[k]
	if st == nil {
		st = make(map[netip.Prefix]ribRoute)
		c.state[k] = st
	}
	st[p] = ribRoute{attrs: attrs, learnedAt: at}
}

// PeerWithdraw records a withdrawal and updates the collector's view.
func (c *Collector) PeerWithdraw(at time.Time, sess netsim.Session, p netip.Prefix) {
	k := c.session(sess)
	u, err := buildUpdate(sess, false, p, netsim.RouteAttrs{})
	if err != nil {
		c.fail(err)
		return
	}
	c.writeMessage(at, sess, u)
	delete(c.state[k], p)
}

// PeerState records a session transition; leaving Established flushes the
// collector's view of the session, as the real collectors do.
func (c *Collector) PeerState(at time.Time, sess netsim.Session, old, new mrt.SessionState) {
	k := c.session(sess)
	rec := &mrt.BGP4MPStateChange{
		Timestamp: at,
		PeerAS:    sess.PeerAS,
		LocalAS:   LocalAS,
		AFI:       sess.AFI,
		PeerIP:    sess.PeerIP,
		LocalIP:   c.localIP(sess.AFI),
		OldState:  old,
		NewState:  new,
	}
	if err := c.uw.Write(rec); err != nil {
		c.fail(err)
		return
	}
	c.noteRecord()
	if rec.Down() {
		delete(c.state, k)
	}
}

func (c *Collector) sortedSessionKeys() []sessionKey {
	keys := make([]sessionKey, 0, len(c.sessions))
	for k := range c.sessions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].peerAS != keys[j].peerAS {
			return keys[i].peerAS < keys[j].peerAS
		}
		return keys[i].peerIP.Less(keys[j].peerIP)
	})
	return keys
}

// SnapshotRIB appends a TABLE_DUMP_V2 snapshot of the collector's current
// view to its dump archive: a peer index table followed by one RIB record
// per prefix present at any peer.
func (c *Collector) SnapshotRIB(at time.Time) {
	start := time.Now()
	defer c.noteSnapshot(start)
	keys := c.sortedSessionKeys()
	table := &mrt.PeerIndexTable{
		Timestamp:   at,
		CollectorID: c.ID,
		ViewName:    c.Name,
	}
	index := make(map[sessionKey]uint16, len(keys))
	for i, k := range keys {
		index[k] = uint16(i)
		table.Peers = append(table.Peers, mrt.PeerEntry{
			BGPID: peerBGPID(k),
			Addr:  k.peerIP,
			AS:    k.peerAS,
		})
	}
	if err := c.dw.Write(table); err != nil {
		c.fail(err)
		return
	}
	c.noteRecord()
	// Gather all prefixes present anywhere, sorted for determinism.
	prefixSet := make(map[netip.Prefix]bool)
	for _, st := range c.state {
		for p := range st {
			prefixSet[p] = true
		}
	}
	prefixes := make([]netip.Prefix, 0, len(prefixSet))
	for p := range prefixSet {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		if prefixes[i].Addr() != prefixes[j].Addr() {
			return prefixes[i].Addr().Less(prefixes[j].Addr())
		}
		return prefixes[i].Bits() < prefixes[j].Bits()
	})
	for _, p := range prefixes {
		rib := &mrt.RIB{Timestamp: at, Prefix: p}
		if p.Addr().Is4() {
			rib.Sequence = c.seq4
			c.seq4++
		} else {
			rib.Sequence = c.seq6
			c.seq6++
		}
		for _, k := range keys {
			rr, ok := c.state[k][p]
			if !ok {
				continue
			}
			entry := mrt.RIBEntry{
				PeerIndex:      index[k],
				OriginatedTime: rr.learnedAt,
				Attrs: bgp.PathAttributes{
					HasOrigin:   true,
					Origin:      bgp.OriginIGP,
					ASPath:      rr.attrs.Path,
					Aggregator:  rr.attrs.Aggregator,
					Communities: rr.attrs.Communities,
				},
			}
			sess := c.sessions[k]
			if p.Addr().Is4() {
				entry.Attrs.NextHop = nextHopFor(sess, p)
			} else {
				entry.Attrs.MPReach = &bgp.MPReachNLRI{
					AFI:     bgp.AFIIPv6,
					SAFI:    bgp.SAFIUnicast,
					NextHop: nextHopFor(sess, p),
					NLRI:    []netip.Prefix{p},
				}
			}
			rib.Entries = append(rib.Entries, entry)
		}
		if len(rib.Entries) == 0 {
			continue
		}
		if err := c.dw.Write(rib); err != nil {
			c.fail(err)
			return
		}
		c.noteRecord()
	}
}

// peerBGPID derives a stable IPv4 router ID for a peer session.
func peerBGPID(k sessionKey) netip.Addr {
	h := fnv.New32a()
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(k.peerAS))
	h.Write(b[:])
	a16 := k.peerIP.As16()
	h.Write(a16[:])
	v := h.Sum32()
	return netip.AddrFrom4([4]byte{10, byte(v >> 16), byte(v >> 8), byte(v)})
}
