package livefeed

import (
	"bytes"
	"encoding/json"
	"testing"

	"zombiescope/internal/mrt"
)

// FuzzFrame drives the wire codec with mutated byte streams. Run with
// `go test ./internal/livefeed -run NONE -fuzz FuzzFrame`.
//
// ReadFrame is the one function in this package that parses bytes an
// attacker (or the chaos harness) controls, so the contract under fuzz
// is strict: any input either yields a clean error or a frame that is
// canonical — re-encoding the accepted (type, payload) reproduces the
// exact bytes consumed, and the payload decodes into the frame type's
// struct (a Record frame's into an event) without panicking.
func FuzzFrame(f *testing.F) {
	seeds := corpusSeeds(f)
	for _, name := range sortedNames(seeds) {
		f.Add(seeds[name])
	}
	f.Add([]byte{})
	f.Add(make([]byte, frameHeaderLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		off := 0
		for {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				return // malformed input must error, never panic or hang
			}
			if len(payload) == 0 || typ != FrameRecord && payload[len(payload)-1] != '\n' {
				t.Fatalf("accepted frame with non-NDJSON payload %q", payload)
			}
			// Canonical re-encoding: the accepted frame's bytes are fully
			// determined by (type, payload). Rebuild and compare against
			// what was consumed — a frame that reads back differently from
			// how it would be written is a codec asymmetry.
			frame := appendFrame(nil, typ, payload)
			end := off + len(frame)
			if end > len(data) || !bytes.Equal(frame, data[off:end]) {
				t.Fatalf("accepted frame at offset %d is not canonical", off)
			}
			off = end
			// The payload must be decodable into the frame's struct or
			// fail cleanly; either way no panic.
			var v any
			switch typ {
			case FrameHello:
				v = &Hello{}
			case FrameSubscribe:
				v = &Subscribe{}
			case FrameAck:
				v = &Ack{}
			case FrameError:
				v = &ErrorFrame{}
			case FrameEvent:
				v = &Event{}
			case FrameHeartbeat:
				v = &Heartbeat{}
			case FrameRecord:
				decodeRecordFrame(payload, &mrt.Decoder{Borrow: true}, nil)
				continue
			default:
				t.Fatalf("ReadFrame returned unknown type %d", typ)
			}
			_ = json.Unmarshal(payload, v)
		}
	})
}
