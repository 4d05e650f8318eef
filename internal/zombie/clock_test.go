package zombie

import (
	"net/netip"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/mrt"
	"zombiescope/internal/netsim"
)

// TestAggregatorClockMonthBoundaryDuplicate pins the month-boundary wrap
// of the 24-bit Aggregator clock: a beacon announcement stamped late in
// May but received just after midnight June 1 used to decode against
// June's month start and land a month in the future, so the stale route
// was never flagged duplicate in later intervals (double-counted
// zombies). DecodeAggregatorClock now re-anchors such decodes to the
// previous month; this test exercises that through both the batch
// Detector and the StreamDetector.
func TestAggregatorClockMonthBoundaryDuplicate(t *testing.T) {
	mayAnnounce := time.Date(2024, 5, 31, 23, 59, 0, 0, time.UTC)
	received := time.Date(2024, 6, 1, 0, 0, 5, 0, time.UTC)
	iv1 := beacon.Interval{
		Prefix:     pfx,
		AnnounceAt: mayAnnounce,
		WithdrawAt: mayAnnounce.Add(15 * time.Minute),
		End:        mayAnnounce.Add(4 * time.Hour),
	}
	iv2 := beacon.Interval{
		Prefix:     pfx,
		AnnounceAt: time.Date(2024, 6, 1, 4, 0, 0, 0, time.UTC),
		WithdrawAt: time.Date(2024, 6, 1, 4, 15, 0, 0, time.UTC),
		End:        time.Date(2024, 6, 1, 8, 0, 0, 0, time.UTC),
	}
	ivs := []beacon.Interval{iv1, iv2}

	f := collector.NewFleet()
	s := sess("rrc25", 300, "2001:db8:feed::2")
	f.PeerState(mayAnnounce.Add(-time.Hour), s, mrt.StateActive, mrt.StateEstablished)
	// The announcement crosses midnight in flight: stamped 23:59 May 31,
	// received 00:00:05 June 1. The peer never withdraws.
	f.PeerAnnounce(received, s, pfx, attrsAt(mayAnnounce, 300, 25091, 8298, 210312))
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	updates := f.UpdatesData()

	rep, err := (&Detector{}).Detect(updates, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outbreaks) != 2 {
		t.Fatalf("outbreaks = %d, want 2", len(rep.Outbreaks))
	}
	for i, ob := range rep.Outbreaks {
		if len(ob.Routes) != 1 {
			t.Fatalf("interval %d routes = %d, want 1", i+1, len(ob.Routes))
		}
		r := ob.Routes[0]
		// The decoded announce time must come back in May, not a month
		// ahead of the receive time.
		if !r.AnnouncedAt.Equal(mayAnnounce) {
			t.Errorf("interval %d announcedAt = %v, want %v", i+1, r.AnnouncedAt, mayAnnounce)
		}
	}
	if rep.Outbreaks[0].Routes[0].Duplicate {
		t.Error("interval 1: the interval's own announcement flagged duplicate")
	}
	if !rep.Outbreaks[1].Routes[0].Duplicate {
		t.Error("interval 2: stale May route not flagged duplicate (month-boundary wrap)")
	}

	// The streaming detector decodes with the same receive-time ref and
	// must agree with the batch on both intervals, field by field.
	events := assertStreamMatchesBatch(t, updates, ivs)
	if len(events) != 2 {
		t.Fatalf("stream emitted %d events, want 2", len(events))
	}
	for _, ev := range events {
		if !ev.AnnouncedAt.Equal(mayAnnounce) {
			t.Errorf("stream announcedAt = %v, want %v", ev.AnnouncedAt, mayAnnounce)
		}
		wantDup := ev.Interval.AnnounceAt.Equal(iv2.AnnounceAt)
		if ev.Duplicate != wantDup {
			t.Errorf("stream duplicate = %v for interval starting %v, want %v",
				ev.Duplicate, ev.Interval.AnnounceAt, wantDup)
		}
	}
}

// TestNonClockAggregatorFallsBackToReceiveTime drives routes whose
// Aggregator attribute is not a RIS beacon clock (or is absent) through
// both detectors: the decode must be refused and the announce time fall
// back to the receive time — fresh routes stay non-duplicate, stale ones
// are still caught as duplicates via the receive time alone.
func TestNonClockAggregatorFallsBackToReceiveTime(t *testing.T) {
	cases := []struct {
		name string
		agg  *bgp.Aggregator
	}{
		{
			// A real route collector's public address: valid IPv4, not in
			// 10.0.0.0/8, must never be read as a timestamp.
			name: "public IPv4 aggregator",
			agg:  &bgp.Aggregator{ASN: 12654, Addr: netip.MustParseAddr("193.0.0.56")},
		},
		{
			name: "IPv4 just outside 10/8",
			agg:  &bgp.Aggregator{ASN: 64500, Addr: netip.MustParseAddr("11.0.0.1")},
		},
		// An IPv6 aggregator cannot be driven through here: the BGP
		// encoder rejects it (AGGREGATOR carries IPv4 per RFC 4271), so
		// decode-level rejection of IPv6 is pinned in internal/beacon.
		{
			name: "no aggregator attribute",
			agg:  nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ivs := twoIntervals()
			received := t0.Add(3 * time.Second)

			f := collector.NewFleet()
			s := sess("rrc25", 300, "2001:db8:feed::2")
			f.PeerState(t0.Add(-time.Hour), s, mrt.StateActive, mrt.StateEstablished)
			f.PeerAnnounce(received, s, pfx, netsim.RouteAttrs{
				Path:       bgp.NewASPath(300, 25091, 8298, 210312),
				Aggregator: tc.agg,
			})
			if err := f.Err(); err != nil {
				t.Fatal(err)
			}
			updates := f.UpdatesData()

			rep, err := (&Detector{}).Detect(updates, ivs)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Outbreaks) != 2 {
				t.Fatalf("outbreaks = %d, want 2", len(rep.Outbreaks))
			}
			r1 := rep.Outbreaks[0].Routes[0]
			if !r1.AnnouncedAt.Equal(received) {
				t.Errorf("interval 1 announcedAt = %v, want receive time %v", r1.AnnouncedAt, received)
			}
			if r1.Duplicate {
				t.Error("interval 1: fresh route flagged duplicate")
			}
			// Interval 2 (24h later): the stale route's receive time alone
			// identifies it as a duplicate.
			r2 := rep.Outbreaks[1].Routes[0]
			if !r2.AnnouncedAt.Equal(received) {
				t.Errorf("interval 2 announcedAt = %v, want receive time %v", r2.AnnouncedAt, received)
			}
			if !r2.Duplicate {
				t.Error("interval 2: stale route not flagged duplicate via receive time")
			}

			events := feedStream(t, updates, ivs, DefaultThreshold)
			if len(events) != 2 {
				t.Fatalf("stream emitted %d events, want 2", len(events))
			}
			for _, ev := range events {
				if !ev.AnnouncedAt.Equal(received) {
					t.Errorf("stream announcedAt = %v, want receive time %v", ev.AnnouncedAt, received)
				}
				wantDup := ev.Interval.AnnounceAt.Equal(ivs[1].AnnounceAt)
				if ev.Duplicate != wantDup {
					t.Errorf("stream duplicate = %v for interval starting %v, want %v",
						ev.Duplicate, ev.Interval.AnnounceAt, wantDup)
				}
			}
		})
	}
}
