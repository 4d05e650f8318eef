// Package mrt implements the MRT routing information export format
// (RFC 6396) as used by the RIPE RIS and RouteViews route collectors:
// BGP4MP message and state-change records for update files, and
// TABLE_DUMP_V2 records (peer index table and per-prefix RIB entries) for
// RIB snapshot ("bview") files.
//
// Only the four-octet-AS record variants are emitted by the Writer, which
// matches modern collector output; the Reader additionally accepts the
// two-octet legacy subtypes.
package mrt

import (
	"errors"
	"fmt"
	"time"
)

// Record types (RFC 6396 §4).
const (
	TypeTableDumpV2 uint16 = 13
	TypeBGP4MP      uint16 = 16
)

// BGP4MP subtypes (RFC 6396 §4.4).
const (
	SubtypeStateChange    uint16 = 0
	SubtypeMessage        uint16 = 1
	SubtypeMessageAS4     uint16 = 4
	SubtypeStateChangeAS4 uint16 = 5
)

// TABLE_DUMP_V2 subtypes (RFC 6396 §4.3).
const (
	SubtypePeerIndexTable uint16 = 1
	SubtypeRIBIPv4Unicast uint16 = 2
	SubtypeRIBIPv6Unicast uint16 = 4
)

// HeaderLen is the length of the MRT common header.
const HeaderLen = 12

// MaxRecordLen bounds the record body length the Reader will accept,
// protecting against corrupted length fields.
const MaxRecordLen = 1 << 20

// SessionState is a BGP FSM state as carried in state-change records
// (RFC 6396 §4.4.1 citing RFC 4271 §8.2.2).
type SessionState uint16

// BGP finite-state-machine states.
const (
	StateIdle        SessionState = 1
	StateConnect     SessionState = 2
	StateActive      SessionState = 3
	StateOpenSent    SessionState = 4
	StateOpenConfirm SessionState = 5
	StateEstablished SessionState = 6
)

func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateConnect:
		return "Connect"
	case StateActive:
		return "Active"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	default:
		return fmt.Sprintf("State(%d)", uint16(s))
	}
}

// Record is any decoded MRT record.
type Record interface {
	// RecordTime returns the MRT header timestamp.
	RecordTime() time.Time
}

// Sentinel errors for malformed MRT data.
var (
	ErrTruncated     = errors.New("mrt: truncated record")
	ErrBadRecord     = errors.New("mrt: malformed record")
	ErrUnsupported   = errors.New("mrt: unsupported record type")
	ErrRecordTooBig  = errors.New("mrt: record length exceeds limit")
	ErrNoPeerIndex   = errors.New("mrt: RIB record before peer index table")
	ErrBadPeerIndex  = errors.New("mrt: RIB entry references unknown peer index")
	ErrBadViewName   = errors.New("mrt: malformed view name")
	ErrBadTimestamp  = errors.New("mrt: timestamp outside the 32-bit unix seconds range")
	ErrEmptyRIBEntry = errors.New("mrt: RIB record with no entries")
)
