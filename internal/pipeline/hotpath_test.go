package pipeline

import (
	"bytes"
	"io"
	"net/netip"
	"sync"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/obs"
)

// TestSyncHotPathMovesCounters proves the scrape hook bridges the bgp
// package's intern stats into registry instruments: after a read pass with
// interned decoding, a scrape advances the counters by the window's delta,
// and a second scrape with no intervening work adds nothing.
func TestSyncHotPathMovesCounters(t *testing.T) {
	u := &bgp.Update{
		NLRI: []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")},
		Attrs: bgp.PathAttributes{
			HasOrigin: true,
			ASPath:    bgp.ASPath{Segments: []bgp.PathSegment{{Type: bgp.ASSequence, ASNs: []bgp.ASN{64500, 64501}}}},
			NextHop:   netip.MustParseAddr("192.0.2.1"),
		},
	}
	wire, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wr := mrt.NewWriter(&buf)
	const records = 32
	for i := 0; i < records; i++ {
		if err := wr.Write(&mrt.BGP4MPMessage{
			Timestamp: time.Date(2024, 6, 10, 12, 0, i, 0, time.UTC),
			PeerAS:    64500, LocalAS: 64499, AFI: bgp.AFIIPv4,
			PeerIP:  netip.MustParseAddr("192.0.2.2"),
			LocalIP: netip.MustParseAddr("192.0.2.100"),
			Data:    wire,
		}); err != nil {
			t.Fatal(err)
		}
	}

	m := NewMetrics(obs.NewRegistry())
	scrape := func() {
		t.Helper()
		if err := m.Registry().WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	scrape() // the counters start at whatever other tests left in the package stats
	before := m.internHits.Value()

	var scratch bgp.Scratch
	rd := mrt.NewReader(bytes.NewReader(buf.Bytes()))
	for {
		rec, err := rd.Next()
		if err != nil {
			break
		}
		msg, ok := rec.(*mrt.BGP4MPMessage)
		if !ok {
			continue
		}
		if _, err := scratch.DecodeUpdate(msg.Data, bgp.DecodeBorrow|bgp.DecodeIntern); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent scrapes split the window between them but never count
	// a lookup twice: the counter ends at exactly the package total.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Registry().WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	hits := m.internHits.Value()
	path, agg := bgp.InternStats()
	if want := int64(path.Hits + agg.Hits); hits != want {
		t.Errorf("intern hits = %d, package total %d", hits, want)
	}
	// Every record after the first decodes the same AS path, so the intern
	// table must have served at least records-1 hits in this window.
	if hits-before < records-1 {
		t.Errorf("intern hits moved by %d, want >= %d", hits-before, records-1)
	}

	// No work since the last scrape: counters must not move.
	scrape()
	if got := m.internHits.Value(); got != hits {
		t.Errorf("idle scrape moved intern hits %d -> %d", hits, got)
	}
}
