package mrt

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"zombiescope/internal/bgp"
)

var testTime = time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)

func testUpdateBytes(t *testing.T) []byte {
	t.Helper()
	u := &bgp.Update{
		Attrs: bgp.PathAttributes{
			HasOrigin: true,
			Origin:    bgp.OriginIGP,
			ASPath:    bgp.NewASPath(25091, 8298, 210312),
			MPReach: &bgp.MPReachNLRI{
				AFI:     bgp.AFIIPv6,
				SAFI:    bgp.SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::ff"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1200::/48")},
			},
		},
	}
	b, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBGP4MPMessageRoundTrip(t *testing.T) {
	msg := &BGP4MPMessage{
		Timestamp: testTime,
		PeerAS:    25091,
		LocalAS:   12654,
		AFI:       bgp.AFIIPv6,
		PeerIP:    netip.MustParseAddr("2001:678:3f4:5::1"),
		LocalIP:   netip.MustParseAddr("2001:7f8::1"),
		Data:      testUpdateBytes(t),
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(msg); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	got, ok := recs[0].(*BGP4MPMessage)
	if !ok {
		t.Fatalf("got %T", recs[0])
	}
	if !got.Timestamp.Equal(testTime) {
		t.Errorf("timestamp %v", got.Timestamp)
	}
	if got.PeerAS != 25091 || got.LocalAS != 12654 {
		t.Errorf("ASNs %v/%v", got.PeerAS, got.LocalAS)
	}
	if got.PeerIP != msg.PeerIP || got.LocalIP != msg.LocalIP {
		t.Errorf("addresses %v/%v", got.PeerIP, got.LocalIP)
	}
	u, err := got.Update()
	if err != nil {
		t.Fatalf("Update(): %v", err)
	}
	if want := "25091 8298 210312"; u.Attrs.ASPath.String() != want {
		t.Errorf("AS path %q, want %q", u.Attrs.ASPath, want)
	}
}

func TestBGP4MPMessageIPv4SessionCarryingIPv6(t *testing.T) {
	// The paper notes peer 176.119.234.201 exchanges IPv6 AFI data over an
	// IPv4 BGP session: the session addressing AFI is independent of the
	// NLRI family inside the message.
	msg := &BGP4MPMessage{
		Timestamp: testTime,
		PeerAS:    211509,
		LocalAS:   12654,
		AFI:       bgp.AFIIPv4,
		PeerIP:    netip.MustParseAddr("176.119.234.201"),
		LocalIP:   netip.MustParseAddr("192.0.2.1"),
		Data:      testUpdateBytes(t),
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(msg); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := recs[0].(*BGP4MPMessage)
	if got.PeerIP != msg.PeerIP {
		t.Errorf("peer IP %v", got.PeerIP)
	}
	u, err := got.Update()
	if err != nil {
		t.Fatal(err)
	}
	if u.Attrs.MPReach == nil || u.Attrs.MPReach.AFI != bgp.AFIIPv6 {
		t.Error("IPv6 NLRI lost on IPv4 session record")
	}
}

func TestStateChangeRoundTrip(t *testing.T) {
	sc := &BGP4MPStateChange{
		Timestamp: testTime,
		PeerAS:    211380,
		LocalAS:   12654,
		AFI:       bgp.AFIIPv6,
		PeerIP:    netip.MustParseAddr("2a0c:9a40:1031::504"),
		LocalIP:   netip.MustParseAddr("2001:7f8::2"),
		OldState:  StateEstablished,
		NewState:  StateIdle,
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(sc); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := recs[0].(*BGP4MPStateChange)
	if !ok {
		t.Fatalf("got %T", recs[0])
	}
	if !got.Down() {
		t.Error("Established->Idle not reported as Down")
	}
	if got.Up() {
		t.Error("Established->Idle reported as Up")
	}
	if got.OldState != StateEstablished || got.NewState != StateIdle {
		t.Errorf("states %v -> %v", got.OldState, got.NewState)
	}
}

func TestStateChangeUpDown(t *testing.T) {
	up := &BGP4MPStateChange{OldState: StateOpenConfirm, NewState: StateEstablished}
	if !up.Up() || up.Down() {
		t.Error("OpenConfirm->Established misclassified")
	}
	neither := &BGP4MPStateChange{OldState: StateIdle, NewState: StateConnect}
	if neither.Up() || neither.Down() {
		t.Error("Idle->Connect misclassified")
	}
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	tbl := &PeerIndexTable{
		Timestamp:   testTime,
		CollectorID: netip.MustParseAddr("193.0.4.28"),
		ViewName:    "rrc25",
		Peers: []PeerEntry{
			{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("2a0c:9a40:1031::504"), AS: 211380},
			{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("176.119.234.201"), AS: 211509},
		},
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(tbl); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := recs[0].(*PeerIndexTable)
	if !ok {
		t.Fatalf("got %T", recs[0])
	}
	if got.ViewName != "rrc25" || got.CollectorID != tbl.CollectorID {
		t.Errorf("header: %q %v", got.ViewName, got.CollectorID)
	}
	if len(got.Peers) != 2 {
		t.Fatalf("got %d peers", len(got.Peers))
	}
	for i := range tbl.Peers {
		if got.Peers[i] != tbl.Peers[i] {
			t.Errorf("peer %d: got %+v, want %+v", i, got.Peers[i], tbl.Peers[i])
		}
	}
}

func TestRIBRoundTripIPv6(t *testing.T) {
	rib := &RIB{
		Timestamp: testTime,
		Sequence:  7,
		Prefix:    netip.MustParsePrefix("2a0d:3dc1:163::/48"),
		Entries: []RIBEntry{
			{
				PeerIndex:      0,
				OriginatedTime: testTime.Add(-2 * time.Hour),
				Attrs: bgp.PathAttributes{
					HasOrigin: true,
					Origin:    bgp.OriginIGP,
					ASPath:    bgp.NewASPath(9304, 6939, 43100, 25091, 8298, 210312),
					MPReach: &bgp.MPReachNLRI{
						AFI:     bgp.AFIIPv6,
						SAFI:    bgp.SAFIUnicast,
						NextHop: netip.MustParseAddr("2001:db8::9"),
						NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:163::/48")},
					},
				},
			},
		},
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(rib); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := recs[0].(*RIB)
	if !ok {
		t.Fatalf("got %T", recs[0])
	}
	if got.Prefix != rib.Prefix || got.Sequence != 7 {
		t.Errorf("header: %v seq %d", got.Prefix, got.Sequence)
	}
	if len(got.Entries) != 1 {
		t.Fatalf("got %d entries", len(got.Entries))
	}
	e := got.Entries[0]
	if !e.OriginatedTime.Equal(rib.Entries[0].OriginatedTime) {
		t.Errorf("originated time %v", e.OriginatedTime)
	}
	if want := "9304 6939 43100 25091 8298 210312"; e.Attrs.ASPath.String() != want {
		t.Errorf("AS path %q", e.Attrs.ASPath)
	}
	// The abbreviated MP_REACH must be reconstructed with next hop and the
	// record prefix as NLRI.
	if e.Attrs.MPReach == nil {
		t.Fatal("MP_REACH not reconstructed")
	}
	if e.Attrs.MPReach.NextHop != rib.Entries[0].Attrs.MPReach.NextHop {
		t.Errorf("next hop %v", e.Attrs.MPReach.NextHop)
	}
	if len(e.Attrs.MPReach.NLRI) != 1 || e.Attrs.MPReach.NLRI[0] != rib.Prefix {
		t.Errorf("NLRI %v", e.Attrs.MPReach.NLRI)
	}
}

func TestRIBRoundTripIPv4(t *testing.T) {
	rib := &RIB{
		Timestamp: testTime,
		Sequence:  1,
		Prefix:    netip.MustParsePrefix("93.175.149.0/24"),
		Entries: []RIBEntry{{
			PeerIndex:      1,
			OriginatedTime: testTime,
			Attrs: bgp.PathAttributes{
				HasOrigin: true,
				ASPath:    bgp.NewASPath(12654),
				NextHop:   netip.MustParseAddr("192.0.2.9"),
			},
		}},
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(rib); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := recs[0].(*RIB)
	if got.Prefix != rib.Prefix {
		t.Errorf("prefix %v", got.Prefix)
	}
	if got.Entries[0].Attrs.NextHop != rib.Entries[0].Attrs.NextHop {
		t.Errorf("next hop %v", got.Entries[0].Attrs.NextHop)
	}
}

func TestMultiRecordStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		&BGP4MPStateChange{Timestamp: testTime, PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
			PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
			OldState: StateIdle, NewState: StateEstablished},
		&BGP4MPMessage{Timestamp: testTime.Add(time.Second), PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
			PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
			Data: testUpdateBytes(t)},
		&BGP4MPMessage{Timestamp: testTime.Add(2 * time.Second), PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
			PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
			Data: testUpdateBytes(t)},
	}
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
	// Timestamps must be monotone as written.
	for i := 1; i < len(got); i++ {
		if got[i].RecordTime().Before(got[i-1].RecordTime()) {
			t.Errorf("record %d out of order", i)
		}
	}
}

func TestReaderSkipsUnknownRecords(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft an unknown record type (type 99), then a valid one.
	unknown := make([]byte, HeaderLen+4)
	unknown[4], unknown[5] = 0, 99
	unknown[11] = 4 // length 4
	buf.Write(unknown)
	w := NewWriter(&buf)
	sc := &BGP4MPStateChange{Timestamp: testTime, PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
		PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
		OldState: StateEstablished, NewState: StateIdle}
	if err := w.Write(sc); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (unknown skipped)", len(recs))
	}
	if _, ok := recs[0].(*BGP4MPStateChange); !ok {
		t.Errorf("got %T", recs[0])
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	sc := &BGP4MPStateChange{Timestamp: testTime, PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
		PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
		OldState: StateEstablished, NewState: StateIdle}
	if err := w.Write(sc); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	_, err := ReadAll(bytes.NewReader(full[:len(full)-2]))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestReaderRejectsHugeRecord(t *testing.T) {
	hdr := make([]byte, HeaderLen)
	hdr[4], hdr[5] = 0, byte(TypeBGP4MP)
	hdr[8] = 0xff // length = huge
	hdr[9] = 0xff
	hdr[10] = 0xff
	hdr[11] = 0xff
	_, err := ReadAll(bytes.NewReader(hdr))
	if !errors.Is(err, ErrRecordTooBig) {
		t.Errorf("err = %v, want ErrRecordTooBig", err)
	}
}

// TestDecodeFramed: the one-record decode applies Reader's framing
// checks plus the trailing-bytes one, and borrows only when asked.
func TestDecodeFramed(t *testing.T) {
	var buf bytes.Buffer
	msg := &BGP4MPMessage{Timestamp: testTime, PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv6,
		PeerIP: netip.MustParseAddr("2001:db8::1"), LocalIP: netip.MustParseAddr("2001:db8::2"),
		Data: testUpdateBytes(t)}
	if err := NewWriter(&buf).Write(msg); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	huge := append([]byte(nil), full...)
	huge[8] = 0xff
	for _, tc := range []struct {
		name string
		b    []byte
		want error
	}{
		{"short header", full[:HeaderLen-1], ErrTruncated},
		{"oversize length", huge, ErrRecordTooBig},
		{"truncated body", full[:len(full)-1], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), full...), 0), ErrBadRecord},
	} {
		if _, err := (&Decoder{}).DecodeFramed(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	for _, borrow := range []bool{false, true} {
		rec, err := (&Decoder{Borrow: borrow}).DecodeFramed(full)
		if err != nil {
			t.Fatal(err)
		}
		got := rec.(*BGP4MPMessage)
		if !bytes.Equal(got.Data, msg.Data) || got.PeerIP != msg.PeerIP || !got.Timestamp.Equal(testTime) {
			t.Fatalf("borrow=%v: decoded %+v, want %+v", borrow, got, msg)
		}
		// The BGP message is the tail of the record body.
		if aliases := &got.Data[0] == &full[len(full)-len(msg.Data)]; aliases != borrow {
			t.Errorf("borrow=%v: Data aliases the input = %v", borrow, aliases)
		}
	}
}

func TestReaderEmptyInput(t *testing.T) {
	recs, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(recs) != 0 {
		t.Errorf("got %v, %v", recs, err)
	}
}

func TestReaderMidHeaderEOF(t *testing.T) {
	rd := NewReader(bytes.NewReader(make([]byte, 5)))
	_, err := rd.Next()
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func makeStream(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	wr := NewWriter(&buf)
	for i := 0; i < n; i++ {
		u := &bgp.Update{NLRI: []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")}}
		u.Attrs.ASPath = bgp.NewASPath(64500, 3333, 12654)
		data, err := u.AppendWireFormat(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := wr.Write(&BGP4MPMessage{
			Timestamp: testTime.Add(time.Duration(i) * time.Second),
			PeerAS:    64500,
			LocalAS:   12654,
			AFI:       bgp.AFIIPv4,
			PeerIP:    netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			LocalIP:   netip.AddrFrom4([4]byte{192, 0, 2, 2}),
			Data:      data,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestCountRecordsStopsAtBadFraming: ReadAll hands back every record
// before a cut one, then the framing error.
func TestCountRecordsStopsAtBadFraming(t *testing.T) {
	trunc := makeStream(t, 10)
	trunc = trunc[:len(trunc)-3]
	recs, err := ReadAll(bytes.NewReader(trunc))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if len(recs) != 9 {
		t.Errorf("decoded %d records before the error, want 9", len(recs))
	}
}

// TestReadAllUnsizedReaderStillWorks: a reader that returns one byte per
// Read (a slow network stream) decodes the same records.
func TestReadAllUnsizedReaderStillWorks(t *testing.T) {
	const n = 100
	data := makeStream(t, n)
	recs, err := ReadAll(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n || !reflect.DeepEqual(recs, want) {
		t.Fatalf("decoded %d records, want the %d a whole-buffer read gives", len(recs), n)
	}
}

func TestWriterRejectsPreEpochTimestamp(t *testing.T) {
	sc := &BGP4MPStateChange{Timestamp: time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC),
		PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
		PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2")}
	err := NewWriter(io.Discard).Write(sc)
	if !errors.Is(err, ErrBadTimestamp) {
		t.Errorf("err = %v, want ErrBadTimestamp", err)
	}
}

func TestWriterRejectsEmptyRIB(t *testing.T) {
	rib := &RIB{Timestamp: testTime, Prefix: netip.MustParsePrefix("10.0.0.0/8")}
	err := NewWriter(io.Discard).Write(rib)
	if !errors.Is(err, ErrEmptyRIBEntry) {
		t.Errorf("err = %v, want ErrEmptyRIBEntry", err)
	}
}

func TestLegacy2ByteSubtypeDecode(t *testing.T) {
	// Hand-encode a legacy BGP4MP_MESSAGE (subtype 1, 2-byte ASNs).
	body := []byte{
		0x61, 0x23, // peer AS 24867
		0x31, 0x6e, // local AS 12654
		0, 0, // ifindex
		0, 1, // AFI IPv4
		192, 0, 2, 1, // peer IP
		192, 0, 2, 2, // local IP
	}
	body = append(body, bgp.NewKeepalive()...)
	var buf bytes.Buffer
	hdr := make([]byte, HeaderLen)
	hdr[4], hdr[5] = 0, byte(TypeBGP4MP)
	hdr[6], hdr[7] = 0, byte(SubtypeMessage)
	hdr[8] = byte(len(body) >> 24)
	hdr[9] = byte(len(body) >> 16)
	hdr[10] = byte(len(body) >> 8)
	hdr[11] = byte(len(body))
	buf.Write(hdr)
	buf.Write(body)
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := recs[0].(*BGP4MPMessage)
	if !ok {
		t.Fatalf("got %T", recs[0])
	}
	if m.PeerAS != 24867 || m.LocalAS != 12654 {
		t.Errorf("legacy ASNs %v/%v", m.PeerAS, m.LocalAS)
	}
}

func TestSessionStateString(t *testing.T) {
	if StateEstablished.String() != "Established" || StateIdle.String() != "Idle" {
		t.Error("state strings wrong")
	}
	if SessionState(42).String() != "State(42)" {
		t.Error("unknown state string wrong")
	}
}
