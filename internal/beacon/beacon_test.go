package beacon

import (
	"net/netip"
	"testing"
	"time"

	"zombiescope/internal/bgp"
)

var base = netip.MustParsePrefix("2a0d:3dc1::/32")

func TestAggregatorClockPaperExample(t *testing.T) {
	// The paper's worked example: Aggregator 10.19.29.192 = 1,252,800
	// seconds after 2018-07-01, i.e. 2018-07-15 12:00 UTC.
	want := netip.MustParseAddr("10.19.29.192")
	at := time.Date(2018, 7, 15, 12, 0, 0, 0, time.UTC)
	if got := AggregatorClock(at); got != want {
		t.Errorf("AggregatorClock(%v) = %v, want %v", at, got, want)
	}
	ref := time.Date(2018, 7, 19, 2, 0, 2, 0, time.UTC)
	dec, ok := DecodeAggregatorClock(want, ref)
	if !ok {
		t.Fatal("decode failed")
	}
	if !dec.Equal(at) {
		t.Errorf("decoded %v, want %v", dec, at)
	}
}

func TestAggregatorClockRoundTrip(t *testing.T) {
	times := []time.Time{
		time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 6, 10, 11, 30, 0, 0, time.UTC),
		time.Date(2024, 6, 30, 23, 59, 59, 0, time.UTC),
	}
	for _, at := range times {
		a := AggregatorClock(at)
		dec, ok := DecodeAggregatorClock(a, at)
		if !ok || !dec.Equal(at) {
			t.Errorf("round trip of %v: got %v, ok=%v", at, dec, ok)
		}
	}
}

func TestDecodeAggregatorClockRejectsNonClock(t *testing.T) {
	if _, ok := DecodeAggregatorClock(netip.MustParseAddr("192.0.2.1"), time.Now()); ok {
		t.Error("non-10/8 address decoded")
	}
	if _, ok := DecodeAggregatorClock(netip.MustParseAddr("2001:db8::1"), time.Now()); ok {
		t.Error("IPv6 address decoded")
	}
}

func TestDecodeAggregatorClockTable(t *testing.T) {
	ref := time.Date(2024, 6, 19, 2, 0, 2, 0, time.UTC)
	cases := []struct {
		name string
		addr string
		ref  time.Time
		want time.Time
		ok   bool
	}{
		{
			name: "zero value is the month start",
			addr: "10.0.0.0",
			ref:  ref,
			want: time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC),
			ok:   true,
		},
		{
			name: "one second into the month",
			addr: "10.0.0.1",
			ref:  ref,
			want: time.Date(2024, 6, 1, 0, 0, 1, 0, time.UTC),
			ok:   true,
		},
		{
			// The attribute only counts seconds since "the" month start:
			// across a month boundary the decoder re-anchors to ref's
			// month, so a late-June encoding read with a July ref lands in
			// July. This ambiguity is inherent to the clock, and the reason
			// the detector passes the receive time as ref.
			name: "month rollover re-anchors to ref month",
			addr: "10.0.0.16", // 16 s after a month start
			ref:  time.Date(2024, 7, 1, 0, 1, 0, 0, time.UTC),
			want: time.Date(2024, 7, 1, 0, 0, 16, 0, time.UTC),
			ok:   true,
		},
		{
			// Ordinary clock skew (decode slightly past ref, within the
			// slack) must NOT trigger re-anchoring.
			name: "decode within skew slack stays in ref month",
			addr: "10.23.222.42", // 1564202 s = June 19 02:30:02
			ref:  ref,            // June 19 02:00:02
			want: time.Date(2024, 6, 19, 2, 30, 2, 0, time.UTC),
			ok:   true,
		},
		{
			// The inverse wrap: a route announced late in May but first
			// observed just after June began decodes weeks into ref's
			// future under June anchoring. Announcements cannot postdate
			// their observation, so the decoder re-anchors to May and the
			// timestamp comes back exact.
			name: "late-month encoding observed after rollover re-anchors to previous month",
			addr: "10.40.220.40", // AggregatorClock(2024-05-31 23:50) = 2677800 s
			ref:  time.Date(2024, 6, 1, 0, 5, 0, 0, time.UTC),
			want: time.Date(2024, 5, 31, 23, 50, 0, 0, time.UTC),
			ok:   true,
		},
		{
			// The 24-bit counter tops out above any month length; the
			// decoder does not clamp, but a value past ref+slack is
			// re-anchored one month back like any other wrap — garbage
			// in, late (previous-month) timestamp out.
			name: "max 24-bit value extends past the month",
			addr: "10.255.255.255",
			ref:  ref,
			want: time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC).Add(16777215 * time.Second),
			ok:   true,
		},
		{
			name: "non-UTC ref anchors to the UTC month",
			addr: "10.0.0.0",
			ref:  time.Date(2024, 6, 19, 2, 0, 2, 0, time.FixedZone("CEST", 2*3600)),
			want: time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC),
			ok:   true,
		},
		{name: "non-RIS IPv4 outside 10/8", addr: "11.0.0.1", ref: ref},
		{name: "public IPv4 aggregator", addr: "193.0.0.56", ref: ref},
		{name: "IPv6 aggregator", addr: "2001:7fb::1", ref: ref},
		{
			// A 4-in-6 mapped clock is not Is4: collectors hand the
			// attribute around as raw 4 bytes, so a mapped form means
			// someone re-encoded it — reject rather than guess.
			name: "IPv4-mapped IPv6 form rejected",
			addr: "::ffff:10.0.0.1",
			ref:  ref,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := DecodeAggregatorClock(netip.MustParseAddr(tc.addr), tc.ref)
			if ok != tc.ok {
				t.Fatalf("DecodeAggregatorClock(%s) ok = %v, want %v", tc.addr, ok, tc.ok)
			}
			if ok && !got.Equal(tc.want) {
				t.Errorf("DecodeAggregatorClock(%s) = %v, want %v", tc.addr, got, tc.want)
			}
		})
	}
}

func TestEncodeAuthorPrefix24h(t *testing.T) {
	cases := []struct {
		hour, minute int
		want         string
	}{
		{18, 45, "2a0d:3dc1:1845::/48"},
		{0, 0, "2a0d:3dc1::/48"},
		{9, 15, "2a0d:3dc1:915::/48"},
		{23, 30, "2a0d:3dc1:2330::/48"},
	}
	day := time.Date(2024, 6, 5, 0, 0, 0, 0, time.UTC)
	for _, c := range cases {
		at := day.Add(time.Duration(c.hour)*time.Hour + time.Duration(c.minute)*time.Minute)
		got, err := EncodeAuthorPrefix(base, at, Recycle24h)
		if err != nil {
			t.Fatalf("%02d:%02d: %v", c.hour, c.minute, err)
		}
		if got != netip.MustParsePrefix(c.want) {
			t.Errorf("%02d:%02d: got %v, want %v", c.hour, c.minute, got, c.want)
		}
		h, m, _, ok := DecodeAuthorPrefix(got, Recycle24h)
		if !ok || h != c.hour || m != c.minute {
			t.Errorf("decode %v: %d:%d ok=%v", got, h, m, ok)
		}
	}
}

func TestEncodeAuthorPrefix15dPaperExamples(t *testing.T) {
	// 2a0d:3dc1:1851::/48 was announced at 18:45 on a day with day%15 == 6
	// (2024-06-21: 21 % 15 = 6; 45 + 6 = 51).
	at := time.Date(2024, 6, 21, 18, 45, 0, 0, time.UTC)
	got, err := EncodeAuthorPrefix(base, at, Recycle15d)
	if err != nil {
		t.Fatal(err)
	}
	if want := netip.MustParsePrefix("2a0d:3dc1:1851::/48"); got != want {
		t.Errorf("got %v, want %v", got, want)
	}
	h, m, d, ok := DecodeAuthorPrefix(got, Recycle15d)
	if !ok || h != 18 || m != 45 || d != 6 {
		t.Errorf("decode: %d:%d day%%15=%d ok=%v", h, m, d, ok)
	}

	// 2a0d:3dc1:163::/48 (the extremely long-lived zombie) = hour 16,
	// minute 0, day%15 = 3 (2024-06-18: 18 % 15 = 3).
	at = time.Date(2024, 6, 18, 16, 0, 0, 0, time.UTC)
	got, err = EncodeAuthorPrefix(base, at, Recycle15d)
	if err != nil {
		t.Fatal(err)
	}
	if want := netip.MustParsePrefix("2a0d:3dc1:163::/48"); got != want {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestAuthorPrefix15dCollisionBug(t *testing.T) {
	// The paper's documented bug: on 2024-06-15 the prefixes of 00:30 and
	// 03:00 coincide as 2a0d:3dc1:30::/48.
	day := time.Date(2024, 6, 15, 0, 0, 0, 0, time.UTC)
	p1, err := EncodeAuthorPrefix(base, day.Add(30*time.Minute), Recycle15d)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := EncodeAuthorPrefix(base, day.Add(3*time.Hour), Recycle15d)
	if err != nil {
		t.Fatal(err)
	}
	want := netip.MustParsePrefix("2a0d:3dc1:30::/48")
	if p1 != want || p2 != want {
		t.Errorf("collision: got %v and %v, want both %v", p1, p2, want)
	}
	// The decoder resolves the ambiguity to the later slot (03:00).
	h, m, d, ok := DecodeAuthorPrefix(want, Recycle15d)
	if !ok || h != 3 || m != 0 || d != 0 {
		t.Errorf("decode: %d:%d day%%15=%d ok=%v, want 3:00 day 0", h, m, d, ok)
	}
}

func TestAuthorPrefixCountPerDay(t *testing.T) {
	// The paper announces 96 different prefixes per day; the 24-hour
	// encoding never collides within a day.
	day := time.Date(2024, 6, 5, 0, 0, 0, 0, time.UTC)
	seen := make(map[netip.Prefix]bool)
	for slot := 0; slot < 96; slot++ {
		p, err := EncodeAuthorPrefix(base, day.Add(time.Duration(slot)*SlotDuration), Recycle24h)
		if err != nil {
			t.Fatal(err)
		}
		seen[p] = true
	}
	if len(seen) != 96 {
		t.Errorf("24h approach: %d distinct prefixes per day, want 96", len(seen))
	}
	// The 15-day encoding collides (the bug). On 2024-06-15 (day%15 == 0)
	// three pairs coincide: 00:30/03:00 ("030"/"30"), 01:30/13:00
	// ("130"), 01:45/14:00 ("145") — the paper documents the first pair.
	day = time.Date(2024, 6, 15, 0, 0, 0, 0, time.UTC)
	seen = make(map[netip.Prefix]bool)
	for slot := 0; slot < 96; slot++ {
		p, err := EncodeAuthorPrefix(base, day.Add(time.Duration(slot)*SlotDuration), Recycle15d)
		if err != nil {
			t.Fatal(err)
		}
		seen[p] = true
	}
	if len(seen) != 93 {
		t.Errorf("15d approach on 2024-06-15: %d distinct prefixes, want 93 (three collision pairs)", len(seen))
	}
}

func TestEncodeAuthorPrefixRejectsUnaligned(t *testing.T) {
	at := time.Date(2024, 6, 5, 10, 7, 0, 0, time.UTC)
	if _, err := EncodeAuthorPrefix(base, at, Recycle24h); err == nil {
		t.Error("unaligned slot accepted")
	}
}

func TestDecodeAuthorPrefixRejectsJunk(t *testing.T) {
	if _, _, _, ok := DecodeAuthorPrefix(netip.MustParsePrefix("2a0d:3dc1::/32"), Recycle24h); ok {
		t.Error("non-/48 accepted")
	}
	// Group with hex letters can't be a decimal timestamp.
	if _, _, _, ok := DecodeAuthorPrefix(netip.MustParsePrefix("2a0d:3dc1:ab00::/48"), Recycle24h); ok {
		t.Error("hex-letter group accepted for 24h")
	}
	if _, _, _, ok := DecodeAuthorPrefix(netip.MustParsePrefix("2a0d:3dc1:9999::/48"), Recycle24h); ok {
		t.Error("minute 99 accepted")
	}
}

func TestRISScheduleEvents(t *testing.T) {
	v4, v6 := DefaultRISPrefixes()
	if len(v4) != 13 || len(v6) != 14 {
		t.Fatalf("default prefixes: %d v4, %d v6", len(v4), len(v6))
	}
	s := &RISSchedule{Prefixes4: v4[:1], Prefixes6: v6[:1], OriginAS: 12654}
	start := time.Date(2018, 7, 19, 0, 0, 0, 0, time.UTC)
	evs := s.Events(start, start.Add(8*time.Hour))
	// Two cycles × two prefixes × (announce + withdraw).
	if len(evs) != 8 {
		t.Fatalf("got %d events: %+v", len(evs), evs)
	}
	if !evs[0].Announce || !evs[0].At.Equal(start) {
		t.Errorf("first event: %+v", evs[0])
	}
	if evs[0].Aggregator == nil {
		t.Fatal("announcement without aggregator clock")
	}
	dec, ok := DecodeAggregatorClock(evs[0].Aggregator.Addr, start)
	if !ok || !dec.Equal(start) {
		t.Errorf("aggregator clock decodes to %v", dec)
	}
	// Withdrawals come 2h after announcements.
	for _, ev := range evs {
		if !ev.Announce {
			if ev.At.Sub(start)%(4*time.Hour) != 2*time.Hour {
				t.Errorf("withdraw at odd offset: %v", ev.At)
			}
			if ev.Aggregator != nil {
				t.Error("withdrawal carries aggregator")
			}
		}
	}
}

func TestRISScheduleIntervals(t *testing.T) {
	s := &RISSchedule{Prefixes6: []netip.Prefix{netip.MustParsePrefix("2001:7fb:fe00::/48")}, OriginAS: 12654}
	start := time.Date(2018, 7, 19, 0, 0, 0, 0, time.UTC)
	ivs := s.Intervals(start, start.Add(24*time.Hour))
	if len(ivs) != 6 {
		t.Fatalf("got %d intervals, want 6", len(ivs))
	}
	for i, iv := range ivs {
		if iv.WithdrawAt.Sub(iv.AnnounceAt) != 2*time.Hour {
			t.Errorf("interval %d: withdraw offset %v", i, iv.WithdrawAt.Sub(iv.AnnounceAt))
		}
		if iv.End.Sub(iv.AnnounceAt) != 4*time.Hour {
			t.Errorf("interval %d: end offset %v", i, iv.End.Sub(iv.AnnounceAt))
		}
	}
}

func TestAuthorScheduleEvents(t *testing.T) {
	s := &AuthorSchedule{Base: base, OriginAS: 210312, Approach: Recycle24h}
	start := time.Date(2024, 6, 5, 0, 0, 0, 0, time.UTC)
	evs := s.Events(start, start.Add(24*time.Hour))
	// 96 announcements; the 23:45 withdrawal falls outside the window.
	var ann, wd int
	for _, ev := range evs {
		if ev.Announce {
			ann++
		} else {
			wd++
		}
	}
	if ann != 96 || wd != 95 {
		t.Errorf("got %d announcements, %d withdrawals; want 96/95", ann, wd)
	}
	// All announcements carry the clock.
	for _, ev := range evs {
		if ev.Announce && ev.Aggregator == nil {
			t.Fatal("announcement without aggregator")
		}
	}
}

func TestAuthorScheduleStride(t *testing.T) {
	s := &AuthorSchedule{Base: base, OriginAS: 210312, Approach: Recycle24h, SlotStride: 4}
	start := time.Date(2024, 6, 5, 0, 0, 0, 0, time.UTC)
	ivs := s.Intervals(start, start.Add(24*time.Hour))
	if len(ivs) != 24 {
		t.Errorf("stride 4: got %d intervals, want 24", len(ivs))
	}
}

func TestAuthorScheduleIntervalsCollision(t *testing.T) {
	s := &AuthorSchedule{Base: base, OriginAS: 210312, Approach: Recycle15d}
	start := time.Date(2024, 6, 15, 0, 0, 0, 0, time.UTC)
	ivs := s.Intervals(start, start.Add(24*time.Hour))
	// 96 slots but three collision pairs on this day: the earlier
	// occurrence of each is dropped.
	if len(ivs) != 93 {
		t.Fatalf("got %d intervals, want 93", len(ivs))
	}
	collided := netip.MustParsePrefix("2a0d:3dc1:30::/48")
	var hits []Interval
	for _, iv := range ivs {
		if iv.Prefix == collided {
			hits = append(hits, iv)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("collided prefix has %d intervals, want 1", len(hits))
	}
	if want := start.Add(3 * time.Hour); !hits[0].AnnounceAt.Equal(want) {
		t.Errorf("kept interval announced at %v, want the later slot %v", hits[0].AnnounceAt, want)
	}
}

func TestAuthorScheduleInterval24hEnd(t *testing.T) {
	s := &AuthorSchedule{Base: base, OriginAS: 210312, Approach: Recycle24h}
	start := time.Date(2024, 6, 5, 0, 0, 0, 0, time.UTC)
	ivs := s.Intervals(start, start.Add(48*time.Hour))
	if len(ivs) != 192 {
		t.Fatalf("got %d intervals", len(ivs))
	}
	// First day's interval for the 00:00 prefix ends when the prefix is
	// reused 24 hours later.
	first := ivs[0]
	if first.End.Sub(first.AnnounceAt) != 24*time.Hour {
		t.Errorf("interval end offset %v, want 24h", first.End.Sub(first.AnnounceAt))
	}
}

func TestAuthorSchedulePrefixes(t *testing.T) {
	s := &AuthorSchedule{Base: base, OriginAS: 210312, Approach: Recycle24h}
	start := time.Date(2024, 6, 5, 0, 0, 0, 0, time.UTC)
	ps := make(map[netip.Prefix]bool)
	for _, ev := range s.Events(start, start.Add(48*time.Hour)) {
		ps[ev.Prefix] = true
	}
	if len(ps) != 96 {
		t.Errorf("two days of 24h-recycled beacons use %d prefixes, want 96", len(ps))
	}
}

func TestScheduleAggregatorASN(t *testing.T) {
	s := &AuthorSchedule{Base: base, OriginAS: 210312, Approach: Recycle24h}
	start := time.Date(2024, 6, 5, 0, 0, 0, 0, time.UTC)
	evs := s.Events(start, start.Add(time.Hour))
	for _, ev := range evs {
		if ev.Announce && ev.Aggregator.ASN != bgp.ASN(210312) {
			t.Errorf("aggregator ASN %v", ev.Aggregator.ASN)
		}
	}
}

// TestParseSchedule pins the flag-level schedule parser both commands
// share: the intervals it builds and its error strings.
func TestParseSchedule(t *testing.T) {
	const from, to = "2024-06-10T00:00:00Z", "2024-06-11T00:00:00Z"
	ivs, start, end, err := ParseSchedule("author", base.String(), "24h", 210312, 8, from, to)
	if err != nil {
		t.Fatal(err)
	}
	want := (&AuthorSchedule{Base: base, OriginAS: 210312, Approach: Recycle24h, SlotStride: 8}).Intervals(start, end)
	if len(ivs) == 0 || len(ivs) != len(want) || ivs[0] != want[0] {
		t.Errorf("author: %d intervals, want the schedule's %d", len(ivs), len(want))
	}
	if ivs, _, _, err := ParseSchedule("ris", "", "", 12654, 0, from, to); err != nil || len(ivs) != 6*27 {
		t.Errorf("ris: %d intervals, %v; want 6 cycles of 27 beacons", len(ivs), err)
	}
	for _, tc := range []struct {
		kind, base, from, to, want string
	}{
		{"author", base.String(), "yesterday", to, `-from: parsing time "yesterday" as "2006-01-02T15:04:05Z07:00": cannot parse "yesterday" as "2006"`},
		{"author", base.String(), from, "", `-to: parsing time "" as "2006-01-02T15:04:05Z07:00": cannot parse "" as "2006"`},
		{"author", "2a0d::/129", from, to, `netip.ParsePrefix("2a0d::/129"): prefix length out of range`},
		{"rrc", base.String(), from, to, `unknown -schedule "rrc"`},
		{"ris", "", from, from, "no beacon intervals in [2024-06-10 00:00:00 +0000 UTC, 2024-06-10 00:00:00 +0000 UTC]"},
	} {
		if _, _, _, err := ParseSchedule(tc.kind, tc.base, "15d", 210312, 1, tc.from, tc.to); err == nil || err.Error() != tc.want {
			t.Errorf("ParseSchedule(%q, %q, %q, %q) error %v, want %s", tc.kind, tc.base, tc.from, tc.to, err, tc.want)
		}
	}
}
