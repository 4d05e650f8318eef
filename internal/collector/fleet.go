package collector

import (
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/mrt"
	"zombiescope/internal/netsim"
)

// Fleet is a set of collectors addressed by name, implementing
// netsim.Sink by dispatching on the session's collector name.
type Fleet struct {
	collectors map[string]*Collector
}

// NewFleet returns an empty fleet; collectors are created on first use.
func NewFleet() *Fleet {
	return &Fleet{collectors: make(map[string]*Collector)}
}

// Collector returns (creating if needed) the named collector.
func (f *Fleet) Collector(name string) *Collector {
	c, ok := f.collectors[name]
	if !ok {
		c = newCollector(name)
		f.collectors[name] = c
	}
	return c
}

// Names returns the collector names in sorted order.
func (f *Fleet) Names() []string {
	names := make([]string, 0, len(f.collectors))
	for n := range f.collectors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PeerAnnounce implements netsim.Sink.
func (f *Fleet) PeerAnnounce(at time.Time, sess netsim.Session, p netip.Prefix, attrs netsim.RouteAttrs) {
	f.Collector(sess.Collector).PeerAnnounce(at, sess, p, attrs)
}

// PeerWithdraw implements netsim.Sink.
func (f *Fleet) PeerWithdraw(at time.Time, sess netsim.Session, p netip.Prefix) {
	f.Collector(sess.Collector).PeerWithdraw(at, sess, p)
}

// PeerState implements netsim.Sink.
func (f *Fleet) PeerState(at time.Time, sess netsim.Session, old, new mrt.SessionState) {
	f.Collector(sess.Collector).PeerState(at, sess, old, new)
}

// SnapshotRIBs appends a RIB snapshot at the given time to every
// collector's dump archive.
func (f *Fleet) SnapshotRIBs(at time.Time) {
	for _, name := range f.Names() {
		f.collectors[name].SnapshotRIB(at)
	}
}

// Err returns the first error any collector hit.
func (f *Fleet) Err() error {
	for _, name := range f.Names() {
		if err := f.collectors[name].Err(); err != nil {
			return err
		}
	}
	return nil
}

// UpdatesData returns every collector's update archive, keyed by name.
func (f *Fleet) UpdatesData() map[string][]byte {
	out := make(map[string][]byte, len(f.collectors))
	for name, c := range f.collectors {
		out[name] = c.UpdatesData()
	}
	return out
}

// DumpData returns every collector's RIB dump archive, keyed by name.
func (f *Fleet) DumpData() map[string][]byte {
	out := make(map[string][]byte, len(f.collectors))
	for name, c := range f.collectors {
		out[name] = c.DumpData()
	}
	return out
}
