package collector

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/mrt/mrttest"
	"zombiescope/internal/netsim"
)

var (
	at0   = time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	pfx6  = netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	pfx4  = netip.MustParsePrefix("93.175.146.0/24")
	attrs = netsim.RouteAttrs{
		Path:       bgp.NewASPath(200, 11, 1, 10, 100),
		Aggregator: &bgp.Aggregator{ASN: 100, Addr: netip.MustParseAddr("10.1.2.3")},
	}
)

func v6Session() netsim.Session {
	return netsim.Session{
		Collector: "rrc25",
		PeerAS:    200,
		PeerIP:    netip.MustParseAddr("2001:db8:feed::1"),
		AFI:       bgp.AFIIPv6,
	}
}

func v4SessionCarryingV6() netsim.Session {
	return netsim.Session{
		Collector: "rrc25",
		PeerAS:    211509,
		PeerIP:    netip.MustParseAddr("176.119.234.201"),
		AFI:       bgp.AFIIPv4,
	}
}

func TestUpdateArchiveRoundTrip(t *testing.T) {
	f := NewFleet()
	sess := v6Session()
	f.PeerState(at0.Add(-time.Minute), sess, mrt.StateActive, mrt.StateEstablished)
	f.PeerAnnounce(at0, sess, pfx6, attrs)
	f.PeerWithdraw(at0.Add(15*time.Minute), sess, pfx6)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	data := f.Collector("rrc25").UpdatesData()
	recs, err := mrttest.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if _, ok := recs[0].(*mrt.BGP4MPStateChange); !ok {
		t.Errorf("record 0 is %T", recs[0])
	}
	ann, ok := recs[1].(*mrt.BGP4MPMessage)
	if !ok {
		t.Fatalf("record 1 is %T", recs[1])
	}
	u, err := ann.Update()
	if err != nil {
		t.Fatal(err)
	}
	if u.Attrs.MPReach == nil || u.Attrs.MPReach.NLRI[0] != pfx6 {
		t.Errorf("announcement NLRI wrong: %+v", u.Attrs.MPReach)
	}
	if u.Attrs.Aggregator == nil || u.Attrs.Aggregator.Addr != attrs.Aggregator.Addr {
		t.Error("aggregator clock lost in archive")
	}
	if got := u.Attrs.ASPath.String(); got != "200 11 1 10 100" {
		t.Errorf("AS path %q", got)
	}
	wd, ok := recs[2].(*mrt.BGP4MPMessage)
	if !ok {
		t.Fatalf("record 2 is %T", recs[2])
	}
	wu, err := wd.Update()
	if err != nil {
		t.Fatal(err)
	}
	all := wu.WithdrawnAll()
	if len(all) != 1 || all[0] != pfx6 {
		t.Errorf("withdrawal prefixes %v", all)
	}
}

func TestIPv6OverIPv4Session(t *testing.T) {
	// The paper's peer 176.119.234.201 (AS211509) sends IPv6 routes over
	// an IPv4-addressed session.
	f := NewFleet()
	sess := v4SessionCarryingV6()
	f.PeerAnnounce(at0, sess, pfx6, attrs)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	recs, err := mrttest.ReadAll(bytes.NewReader(f.Collector("rrc25").UpdatesData()))
	if err != nil {
		t.Fatal(err)
	}
	m := recs[0].(*mrt.BGP4MPMessage)
	if !m.PeerIP.Is4() {
		t.Errorf("session peer IP %v, want IPv4", m.PeerIP)
	}
	u, err := m.Update()
	if err != nil {
		t.Fatal(err)
	}
	if u.Attrs.MPReach == nil || !u.Attrs.MPReach.NextHop.Is6() {
		t.Error("IPv6 NLRI needs an IPv6 next hop even on an IPv4 session")
	}
}

func TestIPv4PrefixUpdate(t *testing.T) {
	f := NewFleet()
	sess := netsim.Session{Collector: "rrc21", PeerAS: 16347, PeerIP: netip.MustParseAddr("192.0.2.77"), AFI: bgp.AFIIPv4}
	f.PeerAnnounce(at0, sess, pfx4, attrs)
	f.PeerWithdraw(at0.Add(time.Hour), sess, pfx4)
	recs, err := mrttest.ReadAll(bytes.NewReader(f.Collector("rrc21").UpdatesData()))
	if err != nil {
		t.Fatal(err)
	}
	u, err := recs[0].(*mrt.BGP4MPMessage).Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(u.NLRI) != 1 || u.NLRI[0] != pfx4 {
		t.Errorf("v4 NLRI %v", u.NLRI)
	}
	if !u.Attrs.NextHop.Is4() {
		t.Errorf("v4 next hop %v", u.Attrs.NextHop)
	}
	wu, err := recs[1].(*mrt.BGP4MPMessage).Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(wu.Withdrawn) != 1 || wu.Withdrawn[0] != pfx4 {
		t.Errorf("v4 withdrawn %v", wu.Withdrawn)
	}
}

func TestRIBSnapshot(t *testing.T) {
	f := NewFleet()
	sessA := v6Session()
	sessB := v4SessionCarryingV6()
	f.PeerAnnounce(at0, sessA, pfx6, attrs)
	f.PeerAnnounce(at0.Add(time.Second), sessB, pfx6, attrs)
	f.PeerAnnounce(at0.Add(2*time.Second), sessA, pfx4, attrs)
	f.SnapshotRIBs(at0.Add(time.Hour))
	// Withdraw from one peer, snapshot again.
	f.PeerWithdraw(at0.Add(2*time.Hour), sessA, pfx6)
	f.SnapshotRIBs(at0.Add(9 * time.Hour))
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	recs, err := mrttest.ReadAll(bytes.NewReader(f.Collector("rrc25").DumpData()))
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot 1: index table + RIB(pfx4) + RIB(pfx6 with 2 entries).
	// Snapshot 2: index table + RIB(pfx4) + RIB(pfx6 with 1 entry).
	var tables []*mrt.PeerIndexTable
	var ribs []*mrt.RIB
	for _, r := range recs {
		switch v := r.(type) {
		case *mrt.PeerIndexTable:
			tables = append(tables, v)
		case *mrt.RIB:
			ribs = append(ribs, v)
		}
	}
	if len(tables) != 2 {
		t.Fatalf("got %d peer index tables", len(tables))
	}
	if len(tables[0].Peers) != 2 {
		t.Fatalf("table has %d peers", len(tables[0].Peers))
	}
	if len(ribs) != 4 {
		t.Fatalf("got %d RIB records", len(ribs))
	}
	count6 := func(after time.Time) int {
		for _, r := range ribs {
			if r.Prefix == pfx6 && !r.RecordTime().Before(after) {
				return len(r.Entries)
			}
		}
		return -1
	}
	if got := count6(at0.Add(time.Hour)); got != 2 {
		t.Errorf("first snapshot pfx6 entries = %d, want 2", got)
	}
	if got := count6(at0.Add(9 * time.Hour)); got != 1 {
		t.Errorf("second snapshot pfx6 entries = %d, want 1", got)
	}
	// RIB entries must reference valid peer table indexes and reconstruct
	// the AS path.
	for _, r := range ribs {
		for _, e := range r.Entries {
			if int(e.PeerIndex) >= len(tables[0].Peers) {
				t.Fatalf("entry references peer %d of %d", e.PeerIndex, len(tables[0].Peers))
			}
			if e.Attrs.ASPath.Length() == 0 {
				t.Error("RIB entry lost its AS path")
			}
		}
	}
}

func TestSessionDownFlushesState(t *testing.T) {
	f := NewFleet()
	sess := v6Session()
	f.PeerAnnounce(at0, sess, pfx6, attrs)
	f.PeerState(at0.Add(time.Minute), sess, mrt.StateEstablished, mrt.StateIdle)
	f.SnapshotRIBs(at0.Add(time.Hour))
	recs, err := mrttest.ReadAll(bytes.NewReader(f.Collector("rrc25").DumpData()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if rib, ok := r.(*mrt.RIB); ok {
			t.Errorf("RIB record for %v present after session down", rib.Prefix)
		}
	}
}

func TestFleetDispatchAndNames(t *testing.T) {
	f := NewFleet()
	f.PeerAnnounce(at0, netsim.Session{Collector: "rrc00", PeerAS: 1, PeerIP: netip.MustParseAddr("2001:db8::1"), AFI: bgp.AFIIPv6}, pfx6, attrs)
	f.PeerAnnounce(at0, netsim.Session{Collector: "rrc25", PeerAS: 2, PeerIP: netip.MustParseAddr("2001:db8::2"), AFI: bgp.AFIIPv6}, pfx6, attrs)
	names := f.Names()
	if len(names) != 2 || names[0] != "rrc00" || names[1] != "rrc25" {
		t.Errorf("names %v", names)
	}
	for _, name := range names {
		recs, err := mrttest.ReadAll(bytes.NewReader(f.Collector(name).UpdatesData()))
		if err != nil || len(recs) != 1 {
			t.Errorf("%s: %d update records, err %v", name, len(recs), err)
		}
	}
	if len(f.UpdatesData()) != 2 || len(f.DumpData()) != 2 {
		t.Error("data maps wrong size")
	}
}

func TestCollectorIDStable(t *testing.T) {
	a, b := collectorID("rrc21"), collectorID("rrc21")
	if a != b {
		t.Error("collector ID unstable")
	}
	if collectorID("rrc21") == collectorID("rrc25") {
		t.Error("collector IDs collide")
	}
	if !a.Is4() {
		t.Error("collector ID not IPv4")
	}
}

func TestDuplicateAnnouncementReplacesState(t *testing.T) {
	f := NewFleet()
	sess := v6Session()
	f.PeerAnnounce(at0, sess, pfx6, attrs)
	attrs2 := attrs
	attrs2.Path = bgp.NewASPath(200, 2, 1, 10, 100)
	f.PeerAnnounce(at0.Add(time.Minute), sess, pfx6, attrs2)
	f.SnapshotRIBs(at0.Add(time.Hour))
	recs, err := mrttest.ReadAll(bytes.NewReader(f.Collector("rrc25").DumpData()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if rib, ok := r.(*mrt.RIB); ok && rib.Prefix == pfx6 {
			if len(rib.Entries) != 1 {
				t.Fatalf("entries = %d", len(rib.Entries))
			}
			if got := rib.Entries[0].Attrs.ASPath.String(); got != "200 2 1 10 100" {
				t.Errorf("snapshot path %q, want the replacement", got)
			}
		}
	}
}
