package backend

import (
	"fmt"
	"sort"
	"sync"
)

// MemStore is an in-memory Store. It models the paper's RAM-disk
// (tmpfs) backing store: I/O is memory-speed and the only cost is the
// memcpy, so CPU-bound encryption work dominates — the regime of
// Figures 8, 9 and 10.
//
// MemStore also counts operations (reads, writes, syncs and bytes
// moved), which the benchmark harness and the I/O-amplification tests
// use to verify the paper's m+2 I/Os-per-commit claim.
type MemStore struct {
	mu    sync.Mutex
	files map[string]*memData

	stats StoreStats
}

// StoreStats is a snapshot of operation counters for a MemStore.
type StoreStats struct {
	Reads        int64 // number of ReadAt calls
	Writes       int64 // number of WriteAt calls
	Syncs        int64 // number of Sync calls
	BytesRead    int64
	BytesWritten int64
}

// memData is the shared content of one file; handles reference it.
type memData struct {
	mu   sync.RWMutex
	data []byte
}

// grow extends d.data to size bytes with amortized-doubling capacity
// growth, so a file written by many small extending writes costs O(n)
// total copying instead of O(n²). Bytes re-exposed from a previous
// truncation are zeroed up to zeroTo, preserving the contract that
// extended ranges read as zeros; the caller overwrites [zeroTo, size)
// itself (a write passes its offset, a truncate size). The caller must
// hold d.mu exclusively.
func (d *memData) grow(size, zeroTo int64) {
	cur := int64(len(d.data))
	if size <= cur {
		return
	}
	if size <= int64(cap(d.data)) {
		d.data = d.data[:size]
		if zeroTo > cur {
			clear(d.data[cur:zeroTo])
		}
		return
	}
	newCap := 2 * int64(cap(d.data))
	if newCap < size {
		newCap = size
	}
	grown := make([]byte, size, newCap)
	copy(grown, d.data)
	d.data = grown
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[string]*memData)}
}

// Open implements Store.
func (s *MemStore) Open(name string, flag OpenFlag) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.files[name]
	if !ok {
		if flag != OpenCreate {
			return nil, fmt.Errorf("open %q: %w", name, ErrNotExist)
		}
		d = &memData{}
		s.files[name] = d
	}
	return &memFile{store: s, data: d, readOnly: flag == OpenRead}, nil
}

// Remove implements Store.
func (s *MemStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		return fmt.Errorf("remove %q: %w", name, ErrNotExist)
	}
	delete(s.files, name)
	return nil
}

// Rename implements Store.
func (s *MemStore) Rename(oldName, newName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.files[oldName]
	if !ok {
		return fmt.Errorf("rename %q: %w", oldName, ErrNotExist)
	}
	delete(s.files, oldName)
	s.files[newName] = d
	return nil
}

// List implements Store.
func (s *MemStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements Store.
func (s *MemStore) Stat(name string) (int64, error) {
	// s.mu is a leaf: file operations take it (for the counters) while
	// holding a file's lock, so it is released before d.mu is taken.
	s.mu.Lock()
	d, ok := s.files[name]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("stat %q: %w", name, ErrNotExist)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.data)), nil
}

// Stats returns a snapshot of the operation counters.
func (s *MemStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the operation counters.
func (s *MemStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = StoreStats{}
}

// TotalBytes returns the sum of all file sizes (the RAM disk's du).
func (s *MemStore) TotalBytes() int64 {
	s.mu.Lock()
	files := make([]*memData, 0, len(s.files))
	for _, d := range s.files {
		files = append(files, d)
	}
	s.mu.Unlock() // leaf lock, as in Stat
	var total int64
	for _, d := range files {
		d.mu.RLock()
		total += int64(len(d.data))
		d.mu.RUnlock()
	}
	return total
}

func (s *MemStore) countRead(n int) {
	s.mu.Lock()
	s.stats.Reads++
	s.stats.BytesRead += int64(n)
	s.mu.Unlock()
}

func (s *MemStore) countWrite(n int) {
	s.mu.Lock()
	s.stats.Writes++
	s.stats.BytesWritten += int64(n)
	s.mu.Unlock()
}

func (s *MemStore) countSync() {
	s.mu.Lock()
	s.stats.Syncs++
	s.mu.Unlock()
}

type memFile struct {
	store    *MemStore
	data     *memData
	readOnly bool

	mu     sync.Mutex
	closed bool
}

func (f *memFile) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return nil
}

// ReadAt implements io.ReaderAt.
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	f.data.mu.RLock()
	defer f.data.mu.RUnlock()
	if off >= int64(len(f.data.data)) {
		return 0, errEOF
	}
	n := copy(p, f.data.data[off:])
	f.store.countRead(n)
	if n < len(p) {
		return n, errEOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the file as needed.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if f.readOnly {
		return 0, ErrReadOnly
	}
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	f.data.mu.Lock()
	defer f.data.mu.Unlock()
	end := off + int64(len(p))
	f.data.grow(end, off)
	copy(f.data.data[off:end], p)
	f.store.countWrite(len(p))
	return len(p), nil
}

// Truncate implements File.
func (f *memFile) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if f.readOnly {
		return ErrReadOnly
	}
	if size < 0 {
		return fmt.Errorf("memfs: negative size %d", size)
	}
	f.data.mu.Lock()
	defer f.data.mu.Unlock()
	cur := int64(len(f.data.data))
	switch {
	case size < cur:
		// Keep the capacity: grow zeroes re-exposed bytes, and shrink
		// followed by regrowth is the write paths' common pattern.
		f.data.data = f.data.data[:size]
	case size > cur:
		f.data.grow(size, size)
	}
	return nil
}

// Size implements File.
func (f *memFile) Size() (int64, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	f.data.mu.RLock()
	defer f.data.mu.RUnlock()
	return int64(len(f.data.data)), nil
}

// Sync implements File. Memory is already "stable"; only counted.
func (f *memFile) Sync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	f.store.countSync()
	return nil
}

// Close implements File.
func (f *memFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}
