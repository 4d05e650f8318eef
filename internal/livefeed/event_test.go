package livefeed

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/experiments"
	"zombiescope/internal/mrt"
)

// eventFromRecordRef is the allocating EventFromRecord the pooled one
// replaced: it decodes through mrt.BGP4MPMessage.Update and re-encodes
// Raw through an mrt.Writer. It is the oracle the tests hold the
// production function to.
func eventFromRecordRef(collector string, rec mrt.Record, includeRaw bool) (Event, bool) {
	ev := Event{
		Channel:   ChannelUpdates,
		Collector: collector,
		Timestamp: rec.RecordTime(),
	}
	switch r := rec.(type) {
	case *mrt.BGP4MPMessage:
		ev.Type = TypeUpdate
		ev.PeerAS = r.PeerAS
		ev.Peer = r.PeerIP
		u, err := r.Update()
		if err == nil {
			ev.Path = u.Attrs.ASPath.ASNs()
			ev.Withdrawals = u.WithdrawnAll()
			if nlri := u.Announced(); len(nlri) > 0 {
				nextHop := u.Attrs.NextHop
				if u.Attrs.MPReach != nil {
					nextHop = u.Attrs.MPReach.NextHop
				}
				ev.Announcements = []Announcement{{NextHop: nextHop, Prefixes: nlri}}
			}
		}
	case *mrt.BGP4MPStateChange:
		ev.Type = TypeState
		ev.PeerAS = r.PeerAS
		ev.Peer = r.PeerIP
		ev.OldState = uint16(r.OldState)
		ev.NewState = uint16(r.NewState)
	default:
		return Event{}, false
	}
	if includeRaw {
		var buf bytes.Buffer
		if err := mrt.NewWriter(&buf).Write(rec); err == nil {
			ev.Raw = buf.Bytes()
		}
	}
	return ev, true
}

// checkEventFromRecord requires EventFromRecord to equal the oracle on
// rec, with and without Raw, and returns the raw-carrying event.
func checkEventFromRecord(t testing.TB, rec mrt.Record) (Event, bool) {
	t.Helper()
	var ev Event
	var ok bool
	for _, includeRaw := range []bool{false, true} {
		want, wantOK := eventFromRecordRef("rrc00", rec, includeRaw)
		got, gotOK := EventFromRecord("rrc00", rec, includeRaw)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("includeRaw=%v: EventFromRecord diverges from the oracle on %T:\n got: %#v (%v)\nwant: %#v (%v)",
				includeRaw, rec, got, gotOK, want, wantOK)
		}
		ev, ok = got, gotOK
	}
	return ev, ok
}

// TestEventFromRecordMatchesRef holds EventFromRecord to the oracle over
// every record of the merged author scenario.
func TestEventFromRecordMatchesRef(t *testing.T) {
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, sr := range stream {
		ev, _ := checkEventFromRecord(t, sr.Rec)
		switch {
		case ev.Type == TypeState:
			kinds["state"]++
		case ev.Announcements != nil:
			kinds["announce"]++
		case len(ev.Withdrawals) > 0:
			kinds["withdraw"]++
		}
	}
	for _, k := range []string{"state", "announce", "withdraw"} {
		if kinds[k] == 0 {
			t.Errorf("the scenario exercised no %s record (%v)", k, kinds)
		}
	}
}

// FuzzEventFromRecord holds EventFromRecord to the oracle on any record
// DecodeFramed accepts. Run with
// `go test ./internal/livefeed -run NONE -fuzz FuzzEventFromRecord`.
func FuzzEventFromRecord(f *testing.F) {
	seeds := eventFromRecordSeeds(f)
	for _, name := range sortedNames(seeds) {
		f.Add(seeds[name].data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := (&mrt.Decoder{}).DecodeFramed(data)
		if err != nil || rec == nil {
			return
		}
		checkEventFromRecord(t, rec)
	})
}

const eventFromRecordCorpusDir = "testdata/fuzz/FuzzEventFromRecord"

// recordSeed is one committed FuzzEventFromRecord input and the shape of
// the event it must yield: whether the BGP decode succeeds (an update
// whose decode fails keeps no path and no prefixes) and whether the
// record streams at all.
type recordSeed struct {
	data             []byte
	streams, decodes bool
}

// eventFromRecordSeeds frames one record of every shape EventFromRecord
// distinguishes.
func eventFromRecordSeeds(t testing.TB) map[string]recordSeed {
	t.Helper()
	ts := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	v4 := [2]netip.Addr{netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")}
	v6 := [2]netip.Addr{netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2")}
	frame := func(rec mrt.Record) []byte {
		b, err := mrt.AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	msg := func(addrs [2]netip.Addr, u *bgp.Update) []byte {
		wire, err := u.AppendWireFormat(nil)
		if err != nil {
			t.Fatal(err)
		}
		afi := bgp.AFIIPv4
		if addrs[0].Is6() {
			afi = bgp.AFIIPv6
		}
		return frame(&mrt.BGP4MPMessage{Timestamp: ts, PeerAS: 25091, LocalAS: 12654, AFI: afi,
			PeerIP: addrs[0], LocalIP: addrs[1], Data: wire})
	}
	path := bgp.NewASPath(25091, 8298, 210312)
	announce4 := msg(v4, &bgp.Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("93.175.147.0/24")},
		NLRI:      []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")},
		Attrs: bgp.PathAttributes{HasOrigin: true, ASPath: path, NextHop: v4[0],
			Aggregator: &bgp.Aggregator{ASN: 210312, Addr: netip.MustParseAddr("10.19.29.192")}},
	})
	announce6 := msg(v6, &bgp.Update{
		Attrs: bgp.PathAttributes{HasOrigin: true, ASPath: path,
			MPReach: &bgp.MPReachNLRI{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, NextHop: v6[0],
				NLRI: []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1200::/48"), netip.MustParsePrefix("2a0d:3dc1:1201::/48")}},
			MPUnreach: &bgp.MPUnreachNLRI{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
				Withdrawn: []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1300::/48")}},
		},
	})
	withdraw6 := msg(v6, &bgp.Update{
		Attrs: bgp.PathAttributes{MPUnreach: &bgp.MPUnreachNLRI{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
			Withdrawn: []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1200::/48")}}},
	})
	endOfRIB := msg(v4, &bgp.Update{})
	// A KEEPALIVE where an UPDATE belongs: the BGP decode fails, so the
	// event keeps the session fields and nothing else.
	keepalive := frame(&mrt.BGP4MPMessage{Timestamp: ts, PeerAS: 25091, LocalAS: 12654, AFI: bgp.AFIIPv4,
		PeerIP: v4[0], LocalIP: v4[1], Data: bgp.NewKeepalive()})
	state := frame(&mrt.BGP4MPStateChange{Timestamp: ts, PeerAS: 25091, LocalAS: 12654, AFI: bgp.AFIIPv6,
		PeerIP: v6[0], LocalIP: v6[1], OldState: mrt.StateEstablished, NewState: mrt.StateIdle})
	rib := frame(&mrt.RIB{Timestamp: ts, Prefix: netip.MustParsePrefix("93.175.146.0/24"),
		Entries: []mrt.RIBEntry{{OriginatedTime: ts, Attrs: bgp.PathAttributes{HasOrigin: true, ASPath: path}}}})
	return map[string]recordSeed{
		"seed-announce-v4":  {announce4, true, true},
		"seed-announce-v6":  {announce6, true, true},
		"seed-withdraw-v6":  {withdraw6, true, true},
		"seed-end-of-rib":   {endOfRIB, true, true},
		"seed-undecodable":  {keepalive, true, false},
		"seed-state-change": {state, true, false},
		"seed-rib":          {rib, false, false},
	}
}

// TestEventFromRecordSeedCorpus keeps the committed FuzzEventFromRecord
// corpus in sync with eventFromRecordSeeds (regenerate with
// -update-corpus, same flag as FuzzFrame), runs the fuzz body over every
// seed, and pins the event shape each seed yields.
func TestEventFromRecordSeedCorpus(t *testing.T) {
	seeds := eventFromRecordSeeds(t)
	if *updateCorpus {
		if err := os.MkdirAll(eventFromRecordCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, s := range seeds {
			if err := os.WriteFile(filepath.Join(eventFromRecordCorpusDir, name), corpusEntry(s.data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, s := range seeds {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(eventFromRecordCorpusDir, name))
			if err != nil {
				t.Fatalf("%v (run with -update-corpus to regenerate)", err)
			}
			if got := parseCorpusEntry(t, raw); !bytes.Equal(got, s.data) {
				t.Fatal("committed corpus entry diverges from eventFromRecordSeeds (run with -update-corpus)")
			}
			rec, err := (&mrt.Decoder{}).DecodeFramed(s.data)
			if err != nil {
				t.Fatal(err)
			}
			ev, ok := checkEventFromRecord(t, rec)
			if ok != s.streams {
				t.Fatalf("streams = %v, want %v", ok, s.streams)
			}
			if decoded := ev.Withdrawals != nil; decoded != s.decodes {
				t.Fatalf("BGP decode succeeded = %v, want %v", decoded, s.decodes)
			}
			if ok && !bytes.Equal(ev.Raw, s.data) {
				t.Fatal("Raw differs from the framed record")
			}
		})
	}
}

// TestPublishRecordAllocs fences the per-record cost of the publish path:
// event build (pooled decode, exact-size copies and raw encode) plus the
// broker's encode-once frame, with no subscriber and no journal.
func TestPublishRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		t.Fatal(err)
	}
	var recs []SourcedRecord
	for _, sr := range stream {
		if _, ok := sr.Rec.(*mrt.BGP4MPMessage); ok {
			recs = append(recs, sr)
			if len(recs) == 1000 {
				break
			}
		}
	}
	b := NewBroker(Config{})
	defer b.Close()
	publish := func() {
		for _, sr := range recs {
			if _, ok := b.PublishRecordAt(sr.Collector, sr.Rec, 0); !ok {
				t.Fatal("update not published")
			}
		}
	}
	for range 5 { // cycle the replay window, so its frames come from the pool
		publish()
	}
	perRecord := testing.AllocsPerRun(5, publish) / float64(len(recs))
	t.Logf("%.2f allocs per published update", perRecord)
	if perRecord > 4 {
		t.Errorf("PublishRecordAt allocates %.2f times per record, want at most 4", perRecord)
	}
}
