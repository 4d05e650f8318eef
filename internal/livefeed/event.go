package livefeed

import (
	"net/netip"
	"sync"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/zombie"
)

// Feed channels.
const (
	// ChannelUpdates carries the raw collector record stream.
	ChannelUpdates = "updates"
	// ChannelZombie carries real-time detection alerts.
	ChannelZombie = "zombie"
)

// Event types within a channel.
const (
	TypeUpdate       = "UPDATE"
	TypeState        = "STATE"
	TypeZombie       = "zombie"
	TypeResurrection = "resurrection"
)

// Announcement is one set of NLRI sharing a next hop, RIS-Live style.
type Announcement struct {
	NextHop  netip.Addr     `json:"next_hop"`
	Prefixes []netip.Prefix `json:"prefixes"`
}

// Alert is the payload of a zombie-channel event: one real-time detection
// from the server-side StreamDetector.
type Alert struct {
	Prefix netip.Prefix `json:"prefix"`
	Path   []bgp.ASN    `json:"path,omitempty"`
	// AnnouncedAt is the announcement time recovered from the Aggregator
	// BGP clock (falling back to the collector receive time).
	AnnouncedAt time.Time `json:"announced_at"`
	DetectedAt  time.Time `json:"detected_at"`
	// IntervalStart / IntervalWithdraw anchor the beacon interval the
	// detection ran in.
	IntervalStart    time.Time `json:"interval_start"`
	IntervalWithdraw time.Time `json:"interval_withdraw"`
	// Duplicate marks a stuck route already reported in an earlier
	// interval (Aggregator clock).
	Duplicate bool `json:"duplicate,omitempty"`
}

// Event is one feed message. Update-channel events mirror RIS Live's
// ris_message shape (collector host, peer, type, path, announcements,
// withdrawals, optional raw record); zombie-channel events carry an Alert.
type Event struct {
	Seq       uint64     `json:"seq"`
	Channel   string     `json:"channel"`
	Type      string     `json:"type"`
	Collector string     `json:"collector,omitempty"`
	Timestamp time.Time  `json:"timestamp"`
	PeerAS    bgp.ASN    `json:"peer_as,omitempty"`
	Peer      netip.Addr `json:"peer,omitempty"`

	// UPDATE fields.
	Path          []bgp.ASN      `json:"path,omitempty"`
	Announcements []Announcement `json:"announcements,omitempty"`
	Withdrawals   []netip.Prefix `json:"withdrawals,omitempty"`

	// STATE fields (BGP FSM states, RFC 6396 numbering).
	OldState uint16 `json:"old_state,omitempty"`
	NewState uint16 `json:"new_state,omitempty"`

	// Raw is the MRT-encoded record (base64 in JSON), so subscribers can
	// run byte-faithful pipelines — e.g. feed zombie.StreamDetector —
	// exactly as if reading the archive.
	Raw []byte `json:"raw,omitempty"`

	// Alert is set on zombie-channel events.
	Alert *Alert `json:"alert,omitempty"`
}

// hasRecord reports whether ev is an update event carrying its MRT
// record: the event a journal stores as the record, and a Record frame
// carries.
func (ev *Event) hasRecord() bool {
	return ev.Channel == ChannelUpdates && len(ev.Raw) > 0
}

// Streamable reports whether EventFromRecord would publish rec: BGP4MP
// messages and state changes stream, RIB-dump record types do not.
func Streamable(rec mrt.Record) bool {
	switch rec.(type) {
	case *mrt.BGP4MPMessage, *mrt.BGP4MPStateChange:
		return true
	}
	return false
}

// EventFromRecord converts a collector record into a feed event.
// RIB-dump record types are not streamed; ok is false for them. When
// includeRaw is set, the MRT encoding of the record rides along so
// subscribers can decode it (mrt.Decoder.DecodeFramed); records the
// encoder refuses (timestamps outside 32-bit unix seconds) ride without
// it.
//
// The UPDATE is decoded into a pooled scratch workspace and the event
// copies out what it keeps: the path's ASNs and one exact-size array
// holding the withdrawals, then the announced prefixes.
func EventFromRecord(collector string, rec mrt.Record, includeRaw bool) (Event, bool) {
	ev := Event{
		Channel:   ChannelUpdates,
		Collector: collector,
		Timestamp: rec.RecordTime(),
	}
	rawLen := mrt.HeaderLen + 12 // common header, ASNs, ifindex, AFI
	switch r := rec.(type) {
	case *mrt.BGP4MPMessage:
		ev.Type = TypeUpdate
		ev.PeerAS = r.PeerAS
		ev.Peer = r.PeerIP
		rawLen += sessionAddrsLen(r.AFI) + len(r.Data)
		s := scratchPool.Get().(*bgp.Scratch)
		if u, err := s.DecodeUpdate(r.Data, bgp.DecodeBorrow|bgp.DecodeIntern|r.DecodeFlags()); err == nil {
			fillUpdate(&ev, u)
		}
		scratchPool.Put(s)
	case *mrt.BGP4MPStateChange:
		ev.Type = TypeState
		ev.PeerAS = r.PeerAS
		ev.Peer = r.PeerIP
		ev.OldState = uint16(r.OldState)
		ev.NewState = uint16(r.NewState)
		rawLen += sessionAddrsLen(r.AFI) + 4
	default:
		return Event{}, false
	}
	if includeRaw {
		if raw, err := mrt.AppendRecord(make([]byte, 0, rawLen), rec); err == nil {
			ev.Raw = raw
		}
	}
	return ev, true
}

// scratchPool holds the UPDATE decode workspaces of EventFromRecord.
var scratchPool = sync.Pool{New: func() any { return new(bgp.Scratch) }}

// sessionAddrsLen is the size of a BGP4MP record's peer and local
// addresses.
func sessionAddrsLen(afi bgp.AFI) int {
	if afi == bgp.AFIIPv6 {
		return 32
	}
	return 8
}

// fillUpdate copies the UPDATE fields of ev out of the scratch-decoded u:
// Withdrawals is non-nil even when empty, and Announcements stays nil
// when nothing is announced.
func fillUpdate(ev *Event, u *bgp.Update) {
	ev.Path = u.Attrs.ASPath.ASNs()
	var mpWithdrawn, mpNLRI []netip.Prefix
	if u.Attrs.MPUnreach != nil {
		mpWithdrawn = u.Attrs.MPUnreach.Withdrawn
	}
	nextHop := u.Attrs.NextHop
	if u.Attrs.MPReach != nil {
		mpNLRI, nextHop = u.Attrs.MPReach.NLRI, u.Attrs.MPReach.NextHop
	}
	nw := len(u.Withdrawn) + len(mpWithdrawn)
	prefixes := make([]netip.Prefix, 0, nw+len(u.NLRI)+len(mpNLRI))
	prefixes = append(append(prefixes, u.Withdrawn...), mpWithdrawn...)
	prefixes = append(append(prefixes, u.NLRI...), mpNLRI...)
	ev.Withdrawals = prefixes[:nw:nw]
	if len(prefixes) > nw {
		ev.Announcements = []Announcement{{NextHop: nextHop, Prefixes: prefixes[nw:]}}
	}
}

// AlertEvent converts a StreamDetector emission into a zombie-channel
// event.
func AlertEvent(ze zombie.ZombieEvent) Event {
	typ := TypeZombie
	if ze.Resurrected {
		typ = TypeResurrection
	}
	return Event{
		Channel:   ChannelZombie,
		Type:      typ,
		Collector: ze.Peer.Collector,
		Timestamp: ze.DetectedAt,
		PeerAS:    ze.Peer.AS,
		Peer:      ze.Peer.Addr,
		Alert: &Alert{
			Prefix:           ze.Prefix,
			Path:             ze.Path.ASNs(),
			AnnouncedAt:      ze.AnnouncedAt,
			DetectedAt:       ze.DetectedAt,
			IntervalStart:    ze.Interval.AnnounceAt,
			IntervalWithdraw: ze.Interval.WithdrawAt,
			Duplicate:        ze.Duplicate,
		},
	}
}

// Prefixes returns every prefix the event concerns: announced plus
// withdrawn NLRI for updates, the alert prefix for zombie events.
func (ev *Event) Prefixes() []netip.Prefix {
	if ev.Alert != nil {
		return []netip.Prefix{ev.Alert.Prefix}
	}
	out := make([]netip.Prefix, 0, len(ev.Withdrawals)+1)
	for _, a := range ev.Announcements {
		out = append(out, a.Prefixes...)
	}
	return append(out, ev.Withdrawals...)
}
