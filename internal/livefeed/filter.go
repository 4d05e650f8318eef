package livefeed

import (
	"fmt"
	"net/netip"

	"zombiescope/internal/bgp"
	"zombiescope/internal/eventstore"
)

// Filter is a server-side subscription filter, evaluated against every
// published event before it is queued for a subscriber. The zero value
// matches everything. Each populated dimension must match (AND across
// dimensions, OR within one). Subscribing with a channel or type no
// event carries is refused rather than left silently empty.
type Filter struct {
	// Channels restricts to the named feed channels ("updates",
	// "zombie"). Empty means all channels.
	Channels []string `json:"channels,omitempty"`
	// Collectors restricts to events from the named collectors.
	Collectors []string `json:"collectors,omitempty"`
	// PeerAS restricts to events from the given peer ASNs.
	PeerAS []bgp.ASN `json:"peer_as,omitempty"`
	// Prefixes restricts to events concerning one of these prefixes or a
	// more-specific of one (RIS Live's prefix + moreSpecific matching).
	// Events carrying no prefix at all (session STATE changes) are
	// excluded when this dimension is set.
	Prefixes []netip.Prefix `json:"prefixes,omitempty"`
	// Types restricts to event types ("UPDATE", "STATE", "zombie",
	// "resurrection").
	Types []string `json:"types,omitempty"`
}

// validate reports the first channel or type in f that no published
// event carries: a subscription naming one would be acknowledged and then
// never receive a thing.
func (f *Filter) validate() error {
	for _, c := range f.Channels {
		if c != ChannelUpdates && c != ChannelZombie {
			return fmt.Errorf("livefeed: unknown channel %q", c)
		}
	}
	for _, t := range f.Types {
		switch t {
		case TypeUpdate, TypeState, TypeZombie, TypeResurrection:
		default:
			return fmt.Errorf("livefeed: unknown event type %q", t)
		}
	}
	return nil
}

// Match reports whether the event passes the filter.
func (f *Filter) Match(ev *Event) bool {
	return f.matchScalars(ev.Channel, ev.Type, ev.Collector, ev.PeerAS) &&
		(len(f.Prefixes) == 0 || f.matchPrefixes(ev))
}

// matchRecord is Match over a journaled record's columns, given its event
// type: a record is an updates-channel event, and the stored prefixes are
// the event's Prefixes, which Match covers in full.
func (f *Filter) matchRecord(se *eventstore.Event, typ string) bool {
	return f.matchScalars(ChannelUpdates, typ, se.Collector, bgp.ASN(se.PeerAS)) &&
		(len(f.Prefixes) == 0 || f.coversAny(se.Prefixes))
}

// matchScalars checks every dimension but the prefixes.
func (f *Filter) matchScalars(channel, typ, collector string, peerAS bgp.ASN) bool {
	if len(f.Channels) > 0 && !containsString(f.Channels, channel) {
		return false
	}
	if len(f.Types) > 0 && !containsString(f.Types, typ) {
		return false
	}
	if len(f.Collectors) > 0 && !containsString(f.Collectors, collector) {
		return false
	}
	if len(f.PeerAS) > 0 {
		for _, as := range f.PeerAS {
			if as == peerAS {
				return true
			}
		}
		return false
	}
	return true
}

// matchPrefixes walks the prefixes Event.Prefixes would list without
// building that slice: Publish runs it once per prefix-filtered
// subscriber, so it must not allocate.
func (f *Filter) matchPrefixes(ev *Event) bool {
	if ev.Alert != nil {
		return f.coversAny([]netip.Prefix{ev.Alert.Prefix})
	}
	for _, a := range ev.Announcements {
		if f.coversAny(a.Prefixes) {
			return true
		}
	}
	return f.coversAny(ev.Withdrawals)
}

// coversAny reports whether one of ps equals or is a more-specific of one
// of the filter's prefixes.
func (f *Filter) coversAny(ps []netip.Prefix) bool {
	for _, p := range ps {
		for _, want := range f.Prefixes {
			if coversOrEqual(want, p) {
				return true
			}
		}
	}
	return false
}

// coversOrEqual reports whether candidate equals want or is a
// more-specific inside it.
func coversOrEqual(want, candidate netip.Prefix) bool {
	if want.Addr().Is4() != candidate.Addr().Is4() {
		return false
	}
	return candidate.Bits() >= want.Bits() && want.Contains(candidate.Addr())
}

func containsString(set []string, s string) bool {
	for _, v := range set {
		if v == s {
			return true
		}
	}
	return false
}
