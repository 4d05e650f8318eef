// Package mrttest holds whole-stream MRT helpers for tests: decode every
// record of a stream, or encode a record list into one. Shipped code
// streams records through mrt.Reader and mrt.Writer instead.
package mrttest

import (
	"io"

	"zombiescope/internal/mrt"
)

// ReadAll decodes every record from r.
func ReadAll(r io.Reader) ([]mrt.Record, error) {
	rd := mrt.NewReader(r)
	var out []mrt.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// WriteAll encodes recs into w in order.
func WriteAll(w io.Writer, recs []mrt.Record) error {
	wr := mrt.NewWriter(w)
	for _, r := range recs {
		if err := wr.Write(r); err != nil {
			return err
		}
	}
	return nil
}
