package bgp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// SegmentType identifies an AS_PATH segment kind (RFC 4271 §4.3).
type SegmentType uint8

// AS_PATH segment types.
const (
	ASSet      SegmentType = 1
	ASSequence SegmentType = 2
)

// PathSegment is one segment of an AS_PATH attribute.
type PathSegment struct {
	Type SegmentType
	ASNs []ASN
}

// ASPath is an ordered list of path segments. The zero value is an empty
// path, valid for locally-originated routes.
type ASPath struct {
	Segments []PathSegment
}

// NewASPath builds a single AS_SEQUENCE path from the given ASNs, with the
// most recent (nearest) AS first, as on the wire.
func NewASPath(asns ...ASN) ASPath {
	if len(asns) == 0 {
		return ASPath{}
	}
	return ASPath{Segments: []PathSegment{{Type: ASSequence, ASNs: slices.Clone(asns)}}}
}

// Prepend returns a copy of the path with asn prepended to the leading
// AS_SEQUENCE (creating one if needed), as a router does when exporting a
// route to an eBGP neighbor.
func (p ASPath) Prepend(asn ASN) ASPath {
	segs := make([]PathSegment, 0, len(p.Segments)+1)
	if len(p.Segments) > 0 && p.Segments[0].Type == ASSequence {
		first := PathSegment{Type: ASSequence, ASNs: make([]ASN, 0, len(p.Segments[0].ASNs)+1)}
		first.ASNs = append(first.ASNs, asn)
		first.ASNs = append(first.ASNs, p.Segments[0].ASNs...)
		segs = append(segs, first)
		for _, s := range p.Segments[1:] {
			segs = append(segs, PathSegment{Type: s.Type, ASNs: slices.Clone(s.ASNs)})
		}
	} else {
		segs = append(segs, PathSegment{Type: ASSequence, ASNs: []ASN{asn}})
		for _, s := range p.Segments {
			segs = append(segs, PathSegment{Type: s.Type, ASNs: slices.Clone(s.ASNs)})
		}
	}
	return ASPath{Segments: segs}
}

// Length returns the AS-path length used by the BGP decision process: the
// number of ASNs in sequences, with each AS_SET counting as one.
func (p ASPath) Length() int {
	n := 0
	for _, s := range p.Segments {
		if s.Type == ASSet {
			n++
		} else {
			n += len(s.ASNs)
		}
	}
	return n
}

// ASNs returns all AS numbers in path order (sets flattened in order).
func (p ASPath) ASNs() []ASN {
	var out []ASN
	for _, s := range p.Segments {
		out = append(out, s.ASNs...)
	}
	return out
}

// Origin returns the last (originating) ASN of the path, or false if the
// path is empty.
func (p ASPath) Origin() (ASN, bool) {
	for i := len(p.Segments) - 1; i >= 0; i-- {
		if asns := p.Segments[i].ASNs; len(asns) > 0 {
			return asns[len(asns)-1], true
		}
	}
	return 0, false
}

// Contains reports whether the path traverses asn.
func (p ASPath) Contains(asn ASN) bool {
	for _, s := range p.Segments {
		if slices.Contains(s.ASNs, asn) {
			return true
		}
	}
	return false
}

// Equal reports whether two paths are identical segment by segment.
func (p ASPath) Equal(q ASPath) bool {
	if len(p.Segments) != len(q.Segments) {
		return false
	}
	for i := range p.Segments {
		if p.Segments[i].Type != q.Segments[i].Type {
			return false
		}
		if !slices.Equal(p.Segments[i].ASNs, q.Segments[i].ASNs) {
			return false
		}
	}
	return true
}

// String renders the path in the usual show-route form, e.g.
// "4637 1299 25091 8298 210312" with sets braced.
func (p ASPath) String() string {
	var sb strings.Builder
	for i, s := range p.Segments {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if s.Type == ASSet {
			sb.WriteByte('{')
		}
		for j, a := range s.ASNs {
			if j > 0 {
				if s.Type == ASSet {
					sb.WriteByte(',')
				} else {
					sb.WriteByte(' ')
				}
			}
			fmt.Fprintf(&sb, "%d", uint32(a))
		}
		if s.Type == ASSet {
			sb.WriteByte('}')
		}
	}
	return sb.String()
}

// AppendWireFormat appends the four-octet-AS wire encoding of the path.
func (p ASPath) AppendWireFormat(dst []byte) ([]byte, error) {
	for _, s := range p.Segments {
		if s.Type != ASSet && s.Type != ASSequence {
			return dst, fmt.Errorf("%w: bad segment type %d", ErrBadAttribute, s.Type)
		}
		if len(s.ASNs) == 0 || len(s.ASNs) > 255 {
			return dst, fmt.Errorf("%w: segment with %d ASNs", ErrBadAttribute, len(s.ASNs))
		}
		dst = append(dst, byte(s.Type), byte(len(s.ASNs)))
		for _, a := range s.ASNs {
			dst = binary.BigEndian.AppendUint32(dst, uint32(a))
		}
	}
	return dst, nil
}

// validASPath reports whether DecodeASPath accepts b, without decoding it.
func validASPath(b []byte) bool {
	for len(b) > 0 {
		if len(b) < 2 {
			return false
		}
		if st := SegmentType(b[0]); st != ASSet && st != ASSequence {
			return false
		}
		need := 2 + 4*int(b[1])
		if len(b) < need {
			return false
		}
		b = b[need:]
	}
	return true
}

// DecodeASPath parses a four-octet-AS AS_PATH attribute value.
func DecodeASPath(b []byte) (ASPath, error) { return decodeASPath(b, 4) }

// decodeASPath parses an AS_PATH attribute value of asLen-octet ASNs.
func decodeASPath(b []byte, asLen int) (ASPath, error) {
	var p ASPath
	for len(b) > 0 {
		if len(b) < 2 {
			return ASPath{}, fmt.Errorf("%w: truncated AS_PATH segment header", ErrBadAttribute)
		}
		st := SegmentType(b[0])
		if st != ASSet && st != ASSequence {
			return ASPath{}, fmt.Errorf("%w: bad AS_PATH segment type %d", ErrBadAttribute, st)
		}
		count := int(b[1])
		need := 2 + asLen*count
		if len(b) < need {
			return ASPath{}, fmt.Errorf("%w: AS_PATH segment needs %d bytes, have %d", ErrBadAttribute, need, len(b))
		}
		seg := PathSegment{Type: st, ASNs: make([]ASN, count)}
		for i := range seg.ASNs {
			if asLen == 4 {
				seg.ASNs[i] = ASN(binary.BigEndian.Uint32(b[2+4*i:]))
			} else {
				seg.ASNs[i] = ASN(binary.BigEndian.Uint16(b[2+2*i:]))
			}
		}
		p.Segments = append(p.Segments, seg)
		b = b[need:]
	}
	return p, nil
}

// mergeAS4Path is the AS path of a two-octet session's UPDATE (RFC 6793
// §4.2.3): AS4_PATH behind as many leading ASNs of AS_PATH, counted as
// Length counts them, as make the result as long as AS_PATH. An AS4_PATH
// longer than AS_PATH is ignored. A sequence split off AS_PATH joins
// AS4_PATH's leading sequence, as one four-octet speaker would send it,
// unless the two hold more than a segment can.
func mergeAS4Path(path, path4 ASPath) ASPath {
	lead := path.Length() - path4.Length()
	if lead < 0 {
		return path
	}
	var segs []PathSegment
	for _, seg := range path.Segments {
		if lead == 0 {
			break
		}
		if seg.Type == ASSet {
			segs = append(segs, seg)
			lead--
			continue
		}
		if k := min(lead, len(seg.ASNs)); k > 0 {
			segs = append(segs, PathSegment{Type: ASSequence, ASNs: seg.ASNs[:k:k]})
			lead -= k
		}
	}
	rest := path4.Segments
	if n := len(segs); n > 0 && len(rest) > 0 && segs[n-1].Type == ASSequence && rest[0].Type == ASSequence &&
		len(segs[n-1].ASNs)+len(rest[0].ASNs) <= 255 {
		segs[n-1].ASNs = append(segs[n-1].ASNs, rest[0].ASNs...)
		rest = rest[1:]
	}
	return ASPath{Segments: append(segs, rest...)}
}
