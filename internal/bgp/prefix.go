package bgp

import (
	"fmt"
	"net/netip"
)

// AppendPrefix appends the RFC 4271 NLRI wire encoding of p: one length
// byte (in bits) followed by the minimum number of address bytes needed to
// hold that many bits. Bits beyond the prefix length are zeroed, as
// required for canonical encodings.
func AppendPrefix(dst []byte, p netip.Prefix) ([]byte, error) {
	if !p.IsValid() {
		return dst, fmt.Errorf("%w: invalid prefix", ErrBadPrefix)
	}
	p = p.Masked()
	bits := p.Bits()
	dst = append(dst, byte(bits))
	addr := p.Addr().AsSlice()
	n := (bits + 7) / 8
	return append(dst, addr[:n]...), nil
}

// DecodePrefix parses one NLRI-encoded prefix for the given address family
// from the start of b. It returns the prefix and the number of bytes
// consumed.
func DecodePrefix(b []byte, afi AFI) (netip.Prefix, int, error) {
	if len(b) < 1 {
		return netip.Prefix{}, 0, fmt.Errorf("%w: empty NLRI", ErrBadPrefix)
	}
	bits := int(b[0])
	var max int
	switch afi {
	case AFIIPv4:
		max = 32
	case AFIIPv6:
		max = 128
	default:
		return netip.Prefix{}, 0, fmt.Errorf("%w: afi %d", ErrBadAddrFamily, afi)
	}
	if bits > max {
		return netip.Prefix{}, 0, fmt.Errorf("%w: prefix length %d exceeds %d", ErrBadPrefix, bits, max)
	}
	n := (bits + 7) / 8
	if len(b) < 1+n {
		return netip.Prefix{}, 0, fmt.Errorf("%w: need %d prefix bytes, have %d", ErrBadPrefix, n, len(b)-1)
	}
	var addr netip.Addr
	if afi == AFIIPv4 {
		var a4 [4]byte
		copy(a4[:], b[1:1+n])
		addr = netip.AddrFrom4(a4)
	} else {
		var a16 [16]byte
		copy(a16[:], b[1:1+n])
		addr = netip.AddrFrom16(a16)
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, 0, fmt.Errorf("%w: %v", ErrBadPrefix, err)
	}
	return p, 1 + n, nil
}

// AppendPrefixes appends the NLRI encodings of all prefixes in ps.
func AppendPrefixes(dst []byte, ps []netip.Prefix) ([]byte, error) {
	var err error
	for _, p := range ps {
		dst, err = AppendPrefix(dst, p)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendDecodedPrefixes parses a run of NLRI-encoded prefixes filling
// exactly b, appending into dst so scratch decoding can reuse slice
// capacity across messages.
func appendDecodedPrefixes(dst []netip.Prefix, b []byte, afi AFI) ([]netip.Prefix, error) {
	for len(b) > 0 {
		p, n, err := DecodePrefix(b, afi)
		if err != nil {
			return dst, err
		}
		dst = append(dst, p)
		b = b[n:]
	}
	return dst, nil
}

// PrefixAFI reports the address family of a prefix.
func PrefixAFI(p netip.Prefix) AFI {
	if p.Addr().Is4() {
		return AFIIPv4
	}
	return AFIIPv6
}
