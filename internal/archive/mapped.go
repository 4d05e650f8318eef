package archive

import (
	"fmt"
	"path/filepath"

	"zombiescope/internal/mmapio"
)

// MappedSet is a zero-copy view of an archive directory: each collector's
// rotated update files stay separate mmap segments in lexical
// (= chronological) order instead of being concatenated into one heap
// buffer. Because MRT records are self-delimiting and never span files,
// a collector's segment list is one logical stream — pipeline.FoldStreams
// consumes it directly with per-file record-aligned chunking.
//
// The byte slices alias refcount-pinned mappings (internal/mmapio); they
// are valid until Close, and strictly read-only. On platforms without
// mmap (or when mapping fails) the segments are plain heap reads and the
// semantics are identical.
type MappedSet struct {
	// Updates holds each collector's update files as ordered segments.
	Updates map[string][][]byte
	// Dumps holds each collector's bview.mrt snapshot, when present.
	Dumps map[string][]byte

	maps []*mmapio.Mapping
}

// OpenMapped maps an archive directory. The caller must Close the set
// when no decoded record borrows its bytes anymore (borrow-mode decode
// aliases record bodies straight into the mappings).
func OpenMapped(dir string) (*MappedSet, error) {
	names, err := Collectors(dir)
	if err != nil {
		return nil, err
	}
	set := &MappedSet{
		Updates: make(map[string][][]byte),
		Dumps:   make(map[string][]byte),
	}
	for _, name := range names {
		sub := filepath.Join(dir, name)
		files, err := updateFiles(sub)
		if err != nil {
			set.Close()
			return nil, err
		}
		if dump := filepath.Join(sub, "bview.mrt"); fileExists(dump) {
			m, err := mmapio.Open(dump)
			if err != nil {
				set.Close()
				return nil, fmt.Errorf("archive: %w", err)
			}
			set.maps = append(set.maps, m)
			set.Dumps[name] = m.Data
		}
		var segs [][]byte
		for _, uf := range files {
			m, err := mmapio.Open(uf)
			if err != nil {
				set.Close()
				return nil, fmt.Errorf("archive: %w", err)
			}
			set.maps = append(set.maps, m)
			if len(m.Data) > 0 {
				segs = append(segs, m.Data)
			}
		}
		if len(segs) > 0 {
			set.Updates[name] = segs
		}
	}
	if len(set.Updates) == 0 {
		set.Close()
		return nil, fmt.Errorf("archive: no <collector>/updates*.mrt files under %s", dir)
	}
	return set, nil
}

// Close releases every mapping. Slices handed out before Close must not
// be touched afterwards.
func (s *MappedSet) Close() {
	for _, m := range s.maps {
		m.Release()
	}
	s.maps = nil
}

// Materialize concatenates the mapped segments into the in-memory Set
// form, copying the bytes so they survive Close. It is the body of Load;
// hot paths should consume Updates directly.
func (s *MappedSet) Materialize() *Set {
	out := &Set{
		Updates: make(map[string][]byte, len(s.Updates)),
		Dumps:   make(map[string][]byte, len(s.Dumps)),
	}
	for name, segs := range s.Updates {
		total := 0
		for _, seg := range segs {
			total += len(seg)
		}
		buf := make([]byte, 0, total)
		for _, seg := range segs {
			buf = append(buf, seg...)
		}
		out.Updates[name] = buf
	}
	for name, d := range s.Dumps {
		out.Dumps[name] = append([]byte(nil), d...)
	}
	return out
}
