package beacon

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/bgp"
)

// Event is one scheduled beacon action.
type Event struct {
	At       time.Time
	Announce bool // false = withdraw
	Prefix   netip.Prefix
	// Aggregator carries the beacon BGP clock on announcements (nil on
	// withdrawals and for schedules that do not use it).
	Aggregator *bgp.Aggregator
}

// Interval is one beacon cycle of a prefix: the detector processes each
// interval independently.
type Interval struct {
	Prefix     netip.Prefix
	AnnounceAt time.Time
	WithdrawAt time.Time
	// End is when the next announcement of the same prefix can occur (the
	// recycle horizon); state after End is attributed to later intervals.
	End time.Time
}

// Schedule produces beacon events and the matching detection intervals.
type Schedule interface {
	// Events returns all beacon events in [start, end), time-ordered.
	Events(start, end time.Time) []Event
	// Intervals returns the detection intervals for announcements in
	// [start, end), time-ordered.
	Intervals(start, end time.Time) []Interval
}

// RISSchedule models the RIPE RIS beacons: each prefix is announced every
// AnnouncePeriod (4h, at 00:00, 04:00, ...) and withdrawn WithdrawAfter
// (2h) later. Announcements carry the Aggregator BGP clock.
type RISSchedule struct {
	Prefixes6 []netip.Prefix
	Prefixes4 []netip.Prefix
	OriginAS  bgp.ASN

	AnnouncePeriod time.Duration // 0 = 4h
	WithdrawAfter  time.Duration // 0 = 2h
}

func (s *RISSchedule) announcePeriod() time.Duration {
	if s.AnnouncePeriod <= 0 {
		return 4 * time.Hour
	}
	return s.AnnouncePeriod
}

func (s *RISSchedule) withdrawAfter() time.Duration {
	if s.WithdrawAfter <= 0 {
		return 2 * time.Hour
	}
	return s.WithdrawAfter
}

func (s *RISSchedule) all() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(s.Prefixes4)+len(s.Prefixes6))
	out = append(out, s.Prefixes4...)
	out = append(out, s.Prefixes6...)
	return out
}

// Events implements Schedule.
func (s *RISSchedule) Events(start, end time.Time) []Event {
	period := s.announcePeriod()
	var out []Event
	for t := start.UTC().Truncate(period); t.Before(end); t = t.Add(period) {
		if t.Before(start) {
			continue
		}
		for _, p := range s.all() {
			agg := &bgp.Aggregator{ASN: s.OriginAS, Addr: AggregatorClock(t)}
			out = append(out, Event{At: t, Announce: true, Prefix: p, Aggregator: agg})
			wd := t.Add(s.withdrawAfter())
			if wd.Before(end) {
				out = append(out, Event{At: wd, Announce: false, Prefix: p})
			}
		}
	}
	sortEvents(out)
	return out
}

// Intervals implements Schedule.
func (s *RISSchedule) Intervals(start, end time.Time) []Interval {
	period := s.announcePeriod()
	var out []Interval
	for t := start.UTC().Truncate(period); t.Before(end); t = t.Add(period) {
		if t.Before(start) {
			continue
		}
		for _, p := range s.all() {
			out = append(out, Interval{
				Prefix:     p,
				AnnounceAt: t,
				WithdrawAt: t.Add(s.withdrawAfter()),
				End:        t.Add(period),
			})
		}
	}
	sortIntervals(out)
	return out
}

// AuthorSchedule models the authors' beacons: every SlotDuration a
// different /48 inside Base is announced and withdrawn 15 minutes later.
// The prefix encodes the slot per the Approach. SlotStride > 1 thins the
// schedule (announce every SlotStride-th slot) to scale experiments down;
// 0 or 1 is the paper's full cadence of 96 prefixes per day.
type AuthorSchedule struct {
	Base       netip.Prefix // the authors' 2a0d:3dc1::/32
	OriginAS   bgp.ASN
	Approach   Approach
	SlotStride int
}

func (s *AuthorSchedule) stride() int {
	if s.SlotStride <= 1 {
		return 1
	}
	return s.SlotStride
}

// RecycleTime returns the approach's prefix reuse horizon.
func (s *AuthorSchedule) RecycleTime() time.Duration {
	if s.Approach == Recycle24h {
		return 24 * time.Hour
	}
	return 15 * 24 * time.Hour
}

func (s *AuthorSchedule) slots(start, end time.Time) []time.Time {
	var out []time.Time
	step := SlotDuration * time.Duration(s.stride())
	for t := start.UTC().Truncate(SlotDuration); t.Before(end); t = t.Add(step) {
		if t.Before(start) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Events implements Schedule. Where the 15-day encoding collides (the
// documented bug), both the earlier and later slot events are emitted —
// exactly what the real beacons did; the paper handles it at analysis
// time by studying only the later prefix.
func (s *AuthorSchedule) Events(start, end time.Time) []Event {
	var out []Event
	for _, t := range s.slots(start, end) {
		p, err := EncodeAuthorPrefix(s.Base, t, s.Approach)
		if err != nil {
			continue
		}
		agg := &bgp.Aggregator{ASN: s.OriginAS, Addr: AggregatorClock(t)}
		out = append(out, Event{At: t, Announce: true, Prefix: p, Aggregator: agg})
		wd := t.Add(SlotDuration)
		if wd.Before(end) {
			out = append(out, Event{At: wd, Announce: false, Prefix: p})
		}
	}
	sortEvents(out)
	return out
}

// Intervals implements Schedule. For collided 15-day prefixes only the
// later slot's interval is produced, per the paper's rule; the earlier
// interval would be contaminated by the re-announcement.
func (s *AuthorSchedule) Intervals(start, end time.Time) []Interval {
	slots := s.slots(start, end)
	lastSlot := make(map[netip.Prefix]time.Time)
	slotPrefix := make(map[time.Time]netip.Prefix, len(slots))
	for _, t := range slots {
		p, err := EncodeAuthorPrefix(s.Base, t, s.Approach)
		if err != nil {
			continue
		}
		slotPrefix[t] = p
		if prev, ok := lastSlot[p]; !ok || t.After(prev) {
			lastSlot[p] = t
		}
	}
	var out []Interval
	for _, t := range slots {
		p, ok := slotPrefix[t]
		if !ok {
			continue
		}
		// Skip earlier occurrences of a collided prefix within the same
		// recycle horizon.
		if next, ok := nextUse(slots, slotPrefix, p, t); ok && next.Sub(t) < s.RecycleTime() && t != lastSlot[p] {
			continue
		}
		intEnd := t.Add(s.RecycleTime())
		if next, ok := nextUse(slots, slotPrefix, p, t); ok && next.Before(intEnd) {
			intEnd = next
		}
		out = append(out, Interval{
			Prefix:     p,
			AnnounceAt: t,
			WithdrawAt: t.Add(SlotDuration),
			End:        intEnd,
		})
	}
	sortIntervals(out)
	return out
}

func nextUse(slots []time.Time, slotPrefix map[time.Time]netip.Prefix, p netip.Prefix, after time.Time) (time.Time, bool) {
	for _, t := range slots {
		if t.After(after) && slotPrefix[t] == p {
			return t, true
		}
	}
	return time.Time{}, false
}

func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
}

func sortIntervals(ivs []Interval) {
	sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].AnnounceAt.Before(ivs[j].AnnounceAt) })
}

// ParseSchedule builds the beacon schedule the command-line flags describe
// and returns its detection intervals between fromStr and toStr (RFC 3339),
// along with the parsed bounds. kind is "author" (base prefix, approach
// "24h" or else 15d, slot stride) or "ris" (the default RIS prefixes);
// origin is the beacon origin AS. Errors name the offending flag.
func ParseSchedule(kind, base, approach string, origin bgp.ASN, stride int, fromStr, toStr string) (intervals []Interval, from, to time.Time, err error) {
	if from, err = time.Parse(time.RFC3339, fromStr); err != nil {
		return nil, from, to, fmt.Errorf("-from: %w", err)
	}
	if to, err = time.Parse(time.RFC3339, toStr); err != nil {
		return nil, from, to, fmt.Errorf("-to: %w", err)
	}
	var sched Schedule
	switch kind {
	case "author":
		basePrefix, err := netip.ParsePrefix(base)
		if err != nil {
			return nil, from, to, err
		}
		ap := Recycle15d
		if approach == "24h" {
			ap = Recycle24h
		}
		sched = &AuthorSchedule{Base: basePrefix, OriginAS: origin, Approach: ap, SlotStride: stride}
	case "ris":
		v4, v6 := DefaultRISPrefixes()
		sched = &RISSchedule{Prefixes4: v4, Prefixes6: v6, OriginAS: origin}
	default:
		return nil, from, to, fmt.Errorf("unknown -schedule %q", kind)
	}
	if intervals = sched.Intervals(from, to); len(intervals) == 0 {
		return nil, from, to, fmt.Errorf("no beacon intervals in [%s, %s]", from, to)
	}
	return intervals, from, to, nil
}

// DefaultRISPrefixes returns stand-ins for the RIPE RIS beacon prefixes of
// the replication era: 13 IPv4 and 14 IPv6 beacons (the counts the paper
// gives for the 2017–2018 periods), drawn from documentation space.
func DefaultRISPrefixes() (v4, v6 []netip.Prefix) {
	for i := 0; i < 13; i++ {
		v4 = append(v4, netip.MustParsePrefix(fmt.Sprintf("93.175.%d.0/24", 144+i)))
	}
	for i := 0; i < 14; i++ {
		v6 = append(v6, netip.MustParsePrefix(fmt.Sprintf("2001:7fb:%x::/48", 0xfe00+i)))
	}
	return v4, v6
}
