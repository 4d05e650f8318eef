package zombie

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// asTrans is AS_TRANS, the two-octet stand-in for a four-octet ASN
// (RFC 6793 §9).
const asTrans = 23456

// wideASNs renumbers the beacon origin and a transit AS of the harness
// topology above 65535, so a two-octet session must carry them as
// AS_TRANS; the collector peers keep two-octet numbers.
var wideASNs = map[bgp.ASN]bgp.ASN{diffOrigin: 210312, 11: 4200000011}

// reencodeArchive rewrites an update archive with the ASNs of wideASNs
// renumbered in every AS path and aggregator. With as2 set every message
// and state change is written as a two-octet-AS record (BGP4MP_MESSAGE,
// BGP4MP_STATE_CHANGE) whose UPDATE a two-octet speaker would send; it
// also returns how many of those UPDATEs carry AS4_PATH.
func reencodeArchive(t *testing.T, data []byte, as2 bool) ([]byte, int) {
	t.Helper()
	var out bytes.Buffer
	w := mrt.NewWriter(&out)
	rd := mrt.NewReader(bytes.NewReader(data))
	as4Paths := 0
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out.Bytes(), as4Paths
		}
		if err != nil {
			t.Fatal(err)
		}
		switch r := rec.(type) {
		case *mrt.BGP4MPMessage:
			u, err := r.Update()
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range u.Attrs.ASPath.Segments {
				for i, asn := range seg.ASNs {
					if wide, ok := wideASNs[asn]; ok {
						seg.ASNs[i] = wide
					}
				}
			}
			if agg := u.Attrs.Aggregator; agg != nil {
				if wide, ok := wideASNs[agg.ASN]; ok {
					agg.ASN = wide
				}
			}
			if r.AS2 = as2; as2 {
				var wide bool
				u.Attrs, wide = twoOctetAttrs(u.Attrs)
				if wide {
					as4Paths++
				}
			}
			if r.Data, err = u.AppendWireFormat(nil); err != nil {
				t.Fatal(err)
			}
		case *mrt.BGP4MPStateChange:
			r.AS2 = as2
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// twoOctetAttrs is a two-octet speaker's encoding of pa (RFC 6793 §4.2.2):
// AS_PATH and AGGREGATOR with two-octet ASNs, AS_TRANS standing for each
// ASN above 65535, and then AS4_PATH (the whole path) and AS4_AGGREGATOR
// carrying the four-octet values. The attributes ride as unknown ones,
// which AppendWireFormat writes as they are; wide reports an AS4_PATH.
func twoOctetAttrs(pa bgp.PathAttributes) (out bgp.PathAttributes, wide bool) {
	out = pa
	out.ASPath, out.Aggregator, out.Unknown = bgp.ASPath{}, nil, nil
	add := func(typ uint8, val []byte) {
		flags := bgp.FlagOptional | bgp.FlagTransitive
		if typ == bgp.AttrASPath {
			flags = bgp.FlagTransitive
		}
		out.Unknown = append(out.Unknown, bgp.RawAttr{Flags: flags, Type: typ, Value: val})
	}
	narrow := func(asn bgp.ASN) uint16 {
		if asn > 0xffff {
			wide = true
			return asTrans
		}
		return uint16(asn)
	}
	if len(pa.ASPath.Segments) > 0 {
		var path2, path4 []byte
		for _, seg := range pa.ASPath.Segments {
			path2 = append(path2, byte(seg.Type), byte(len(seg.ASNs)))
			path4 = append(path4, byte(seg.Type), byte(len(seg.ASNs)))
			for _, asn := range seg.ASNs {
				path2 = binary.BigEndian.AppendUint16(path2, narrow(asn))
				path4 = binary.BigEndian.AppendUint32(path4, uint32(asn))
			}
		}
		add(bgp.AttrASPath, path2)
		if wide {
			add(bgp.AttrAS4Path, path4)
		}
	}
	if agg := pa.Aggregator; agg != nil {
		addr := agg.Addr.As4()
		add(bgp.AttrAggregator, append(binary.BigEndian.AppendUint16(nil, narrow(agg.ASN)), addr[:]...))
		if agg.ASN > 0xffff {
			add(bgp.AttrAS4Aggregator, append(binary.BigEndian.AppendUint32(nil, uint32(agg.ASN)), addr[:]...))
		}
	}
	out.Unknown = append(out.Unknown, pa.Unknown...)
	return out, wide
}

// TestTwoOctetArchiveDetectsLikeFourOctet writes each harness scenario's
// update archive twice, once in four-octet-AS records and once in the
// two-octet records of RFC 6793 speakers, with the beacon origin and a
// transit AS numbered above 65535, and requires the same tracked and
// track-all histories and the same report from both. Both histories are
// built in one process, through the same intern tables, so a two-octet
// AS_PATH or AGGREGATOR interned under its own bytes, where a four-octet
// value may share them, would show here.
func TestTwoOctetArchiveDetectsLikeFourOctet(t *testing.T) {
	outbreaks, as4Paths := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		sc := genScenario(t, seed)
		four, two := make(map[string][]byte), make(map[string][]byte)
		for name, data := range sc.updates {
			four[name], _ = reencodeArchive(t, data, false)
			var n int
			two[name], n = reencodeArchive(t, data, true)
			as4Paths += n
			if bytes.Equal(four[name], two[name]) {
				t.Fatalf("seed %d, %s: the two-octet archive is the four-octet one", seed, name)
			}
		}
		for _, track := range []TrackSet{NewTrackSet(diffPrefixes(sc.intervals)), nil} {
			want, err := BuildHistory(four, track)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildHistory(two, track)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, tracked %v: the two-octet archive's history diverges from the four-octet one's", seed, track != nil)
			}
			det := &Detector{RecordPaths: true}
			rep := det.DetectFromHistory(want, sc.intervals)
			if got := det.DetectFromHistory(got, sc.intervals); !reflect.DeepEqual(got, rep) {
				t.Fatalf("seed %d, tracked %v: the two-octet archive's report diverges from the four-octet one's", seed, track != nil)
			}
			outbreaks += len(rep.Outbreaks)
		}
	}
	if outbreaks == 0 || as4Paths == 0 {
		t.Fatalf("%d outbreaks, %d UPDATEs with AS4_PATH: the scenarios exercise nothing", outbreaks, as4Paths)
	}
}
