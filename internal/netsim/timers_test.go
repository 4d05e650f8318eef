package netsim

import (
	"testing"
	"time"
)

func TestMRAIBatchesAnnouncements(t *testing.T) {
	// With MRAI on, a rapid sequence of decision changes at the origin
	// reaches neighbors as fewer messages; final state still converges.
	count := func(mrai time.Duration) (uint64, int) {
		s := newTestSim(t, Config{Seed: 4, MRAI: MRAIConfig{Interval: mrai}})
		// Flap the prefix at the origin several times within the MRAI
		// window, ending announced.
		for i := 0; i < 5; i++ {
			at := simStart.Add(time.Duration(i) * 2 * time.Second)
			s.ScheduleAnnounce(at, originAS, beaconP, nil)
			if i < 4 {
				s.ScheduleWithdraw(at.Add(time.Second), originAS, beaconP)
			}
		}
		s.RunAll()
		return s.Stats().MessagesSent, s.RouteCount(beaconP)
	}
	noMRAI, routesA := count(0)
	withMRAI, routesB := count(30 * time.Second)
	if routesA != 8 || routesB != 8 {
		t.Fatalf("convergence broken: %d / %d routes, want 8", routesA, routesB)
	}
	if withMRAI >= noMRAI {
		t.Errorf("MRAI did not reduce messages: %d with vs %d without", withMRAI, noMRAI)
	}
}

func TestMRAIDoesNotDelayWithdrawals(t *testing.T) {
	s := newTestSim(t, Config{Seed: 4, MRAI: MRAIConfig{Interval: time.Minute}})
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(5*time.Second), originAS, beaconP)
	s.RunAll()
	if got := s.RouteCount(beaconP); got != 0 {
		t.Errorf("withdrawal held back by MRAI: %d routes remain", got)
	}
}

func TestMRAIPendingFlushDeliversLatestDecision(t *testing.T) {
	// Announce, then quickly re-announce with a different origination
	// (e.g. a new Aggregator) — after the MRAI flush everyone holds the
	// latest version.
	s := newTestSim(t, Config{Seed: 4, MRAI: MRAIConfig{Interval: 20 * time.Second}})
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.Run(simStart.Add(time.Hour))
	if !s.HasRoute(200, beaconP) {
		t.Fatal("no convergence with MRAI")
	}
}

func TestRFDSuppressesFlappingRoute(t *testing.T) {
	// Flap the beacon enough times that damping at the neighbors
	// suppresses it: after the final announcement some ASes refuse the
	// route until the penalty decays.
	s := newTestSim(t, Config{Seed: 4, RFD: RFDConfig{Enabled: true}})
	at := simStart
	for i := 0; i < 4; i++ {
		s.ScheduleAnnounce(at, originAS, beaconP, nil)
		s.ScheduleWithdraw(at.Add(time.Minute), originAS, beaconP)
		at = at.Add(2 * time.Minute)
	}
	finalAnnounce := at
	s.ScheduleAnnounce(finalAnnounce, originAS, beaconP, nil)
	s.Run(finalAnnounce.Add(10 * time.Minute))
	// 10 (adjacent to the origin) has taken >= 3 withdrawals from 100:
	// penalty 2000+ crosses the suppress threshold, so the final
	// announcement is refused somewhere along the chain and full
	// visibility is NOT reached shortly after the announcement.
	if got := s.RouteCount(beaconP); got == 8 {
		t.Fatalf("no suppression: all %d ASes have the route", got)
	}
	// After the penalty decays below reuse, a fresh announcement is
	// accepted everywhere again.
	reannounce := finalAnnounce.Add(4 * time.Hour)
	s.ScheduleWithdraw(reannounce.Add(-time.Hour), originAS, beaconP)
	s.ScheduleAnnounce(reannounce, originAS, beaconP, nil)
	s.RunAll()
	if got := s.RouteCount(beaconP); got != 8 {
		t.Errorf("route did not recover after damping decay: %d of 8", got)
	}
}

func TestRFDDisabledByDefault(t *testing.T) {
	s := newTestSim(t, Config{Seed: 4})
	at := simStart
	for i := 0; i < 6; i++ {
		s.ScheduleAnnounce(at, originAS, beaconP, nil)
		s.ScheduleWithdraw(at.Add(time.Minute), originAS, beaconP)
		at = at.Add(2 * time.Minute)
	}
	s.ScheduleAnnounce(at, originAS, beaconP, nil)
	s.RunAll()
	if got := s.RouteCount(beaconP); got != 8 {
		t.Errorf("flapping affected visibility without RFD: %d of 8", got)
	}
}

func TestRFDStateDecay(t *testing.T) {
	st := &rfdState{penalty: 2000, lastUpdate: simStart}
	halfLife := 15 * time.Minute
	if got := st.decayed(simStart.Add(15*time.Minute), halfLife); got < 990 || got > 1010 {
		t.Errorf("penalty after one half-life = %v, want ~1000", got)
	}
	if got := st.decayed(simStart.Add(30*time.Minute), halfLife); got < 495 || got > 505 {
		t.Errorf("penalty after two half-lives = %v, want ~500", got)
	}
	if got := st.decayed(simStart, halfLife); got != 2000 {
		t.Errorf("no time elapsed: %v", got)
	}
}
