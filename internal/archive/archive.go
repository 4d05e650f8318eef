// Package archive reads and writes the on-disk MRT archive layout the
// tools share, mirroring a RIS mirror directory:
//
//	<dir>/<collector>/updates.mrt                  (single-file form)
//	<dir>/<collector>/updates.YYYYMMDD.HHMM.mrt    (rotated form)
//	<dir>/<collector>/bview.mrt                    (RIB dump snapshots)
//
// Because MRT records are self-delimiting, the rotated update files of a
// collector concatenate (in name order) into one valid stream, which is
// how Load returns them. Write stores the single-file form only: rotated
// archives, as RIS publishes them, are read and never written.
package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Set is an in-memory archive: per-collector update streams and RIB dump
// streams.
type Set struct {
	Updates map[string][]byte
	Dumps   map[string][]byte
}

// Load reads an archive directory into memory: OpenMapped's directory
// walk, materialized — each collector's updates*.mrt files concatenated in
// lexical (= chronological) order into one exactly-sized heap buffer that
// outlives the mappings. Missing bview.mrt files are fine.
//
// Load copies every stream, so it is bounded by available memory — roughly
// the archive's on-disk size. Month-scale archives should stay mapped
// (OpenMapped feeds pipeline.FoldStreams without copying), and the zombied
// daemon's durable event store (-store-dir) replaces bulk reloads entirely.
func Load(dir string) (*Set, error) {
	m, err := OpenMapped(dir)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Materialize(), nil
}

// Collectors lists the collector subdirectories of an archive, sorted.
func Collectors(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// updateFiles returns the collector's update files as full paths in
// lexical (= chronological) order.
func updateFiles(sub string) ([]string, error) {
	files, err := os.ReadDir(sub)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	var out []string
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		if strings.HasPrefix(f.Name(), "updates") && strings.HasSuffix(f.Name(), ".mrt") {
			out = append(out, filepath.Join(sub, f.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && !fi.IsDir()
}

// Write stores an in-memory archive in the single-file layout.
func Write(dir string, set *Set) error {
	for name, data := range set.Updates {
		sub := filepath.Join(dir, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		if err := os.WriteFile(filepath.Join(sub, "updates.mrt"), data, 0o644); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	for name, data := range set.Dumps {
		sub := filepath.Join(dir, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		if err := os.WriteFile(filepath.Join(sub, "bview.mrt"), data, 0o644); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	return nil
}
