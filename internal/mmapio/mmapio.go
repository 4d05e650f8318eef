// Package mmapio provides refcount-pinned read-only file mappings — the
// zero-copy substrate shared by the event store's sealed-segment scans and
// the archive ingest path. A Mapping is an mmap of a whole file on unix
// (with a plain-read heap fallback elsewhere, or when mmap fails), plus a
// reference count that pins the bytes while borrowers hold slices into
// them: decoded records may alias Mapping.Data directly, and the unmap is
// deferred until the last holder releases.
package mmapio

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// Mapping is a refcounted read-only view of a file. The opener holds the
// first reference; every borrower that keeps slices aliasing Data past the
// opener's lifetime must Acquire/Release its own.
type Mapping struct {
	// Data is the file's bytes. Slices of it remain valid until the last
	// reference is released; after that, touching them faults (mmap) or
	// merely wastes heap (fallback). Treat it as strictly read-only.
	Data []byte

	refs  atomic.Int32
	unmap func()
}

// Acquire adds a reference, pinning Data for an additional holder.
func (m *Mapping) Acquire() { m.refs.Add(1) }

// Release drops a reference; the last release unmaps. Releasing more
// often than acquiring panics, as a refcount bug would otherwise surface
// as a delayed segfault in whoever still aliases the mapping.
func (m *Mapping) Release() {
	n := m.refs.Add(-1)
	if n < 0 {
		panic("mmapio: Release without matching Acquire")
	}
	if n == 0 && m.unmap != nil {
		m.unmap()
		m.unmap = nil
	}
}

// MapFile maps [0, size) of f read-only. The file descriptor is not
// retained (an mmap outlives its fd; the fallback copies), so the caller
// may close f immediately. A failed mmap degrades to the heap copy.
func MapFile(f *os.File, size int64) (*Mapping, error) {
	if size == 0 {
		m := &Mapping{}
		m.refs.Store(1)
		return m, nil
	}
	if data, unmap, err := rawMap(f, size); err == nil {
		m := &Mapping{Data: data, unmap: unmap}
		m.refs.Store(1)
		return m, nil
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, err
	}
	m := &Mapping{Data: data}
	m.refs.Store(1)
	return m, nil
}

// Open maps an entire file by path.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("mmapio: %s is not a regular file", path)
	}
	return MapFile(f, fi.Size())
}
