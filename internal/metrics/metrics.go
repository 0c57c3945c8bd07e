// Package metrics implements the latency-breakdown instrumentation
// used for the paper's Figure 9: time spent on the read and write
// paths is divided into five categories — Encrypt, Decrypt, GetCEKey,
// I/O and Misc — where GetCEKey is dominated by the SHA-256 block
// hash.
//
// A Recorder accumulates per-category wall time and operation counts.
// The zero-value Recorder is valid and disabled-free: recording into a
// nil *Recorder is a no-op, so the hot path can carry an optional
// recorder without branching at every call site.
//
// Besides time, a Recorder counts seven data-path events: WriteRun and
// ReadRun (planned extents issued), Prefetch, SlabHit and SlabMiss,
// BlockCompressed and RawEscape. They are exported only through the
// recorder-backed fields of the mount's EngineStats, so the recorder is
// their one home. Every count a component exports whether or not a
// recorder is attached lives only in that component: cache hits and
// misses in the block cache (CacheStats), pool batches and tasks in the
// worker pool (PoolStats), per-slot shard traffic and queue depth,
// replication and failover counts, and rebalance progress in the
// sharded store (ShardStats, ReplicationStats, MigrationStatus).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Category labels one slice of the latency breakdown.
type Category int

// Categories, matching the paper's Figure 9 legend.
const (
	// Encrypt is the data-block cipher on the write path. On a
	// compressing mount it also carries cryptoutil.CompressBlock:
	// core's encode charges the codec here, not to Misc.
	Encrypt Category = iota
	// Decrypt is the data-block cipher on the read path, plus
	// cryptoutil.DecompressBlock on a compressed segment (core's
	// decodeStored).
	Decrypt
	GetCEKey
	IO
	Misc
	numCategories
)

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case Encrypt:
		return "Encrypt"
	case Decrypt:
		return "Decrypt"
	case GetCEKey:
		return "GetCEKey"
	case IO:
		return "I/O"
	case Misc:
		return "Misc."
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories lists all categories in display order.
func Categories() []Category {
	return []Category{Encrypt, Decrypt, GetCEKey, IO, Misc}
}

// Event labels a counted engine event. Unlike the latency categories,
// events are pure counters (see the package comment for which counts
// are events and which live elsewhere).
type Event int

// Events counted by the engine.
const (
	// WriteRun / ReadRun count planned data extents issued, in every
	// mode: one WriteRun per extent a commit writes with a single
	// WriteAt, one ReadRun per extent the read path fetches with a
	// single backend read — a one-block read and a partial write's fill
	// are one-block extents. The segment walk's reads (audit, recovery,
	// rotation) and reads of a segment caught mid-update count none.
	WriteRun Event = iota
	ReadRun
	// Prefetch counts asynchronous readahead fetches issued by the
	// sequential-read detector.
	Prefetch
	// SlabHit / SlabMiss count slab-allocator requests served from the
	// pool versus falling through to a fresh allocation.
	SlabHit
	SlabMiss
	// BlockCompressed counts data blocks committed as a compressed
	// prefix of their slot; RawEscape counts blocks the deterministic
	// compressor could not shrink by at least one length unit, stored
	// verbatim instead (so compression never costs bytes over raw).
	BlockCompressed
	RawEscape
	numEvents
)

// String returns the event's label.
func (e Event) String() string {
	switch e {
	case WriteRun:
		return "WriteRun"
	case ReadRun:
		return "ReadRun"
	case Prefetch:
		return "Prefetch"
	case SlabHit:
		return "SlabHit"
	case SlabMiss:
		return "SlabMiss"
	case BlockCompressed:
		return "BlockCompressed"
	case RawEscape:
		return "RawEscape"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// AllEvents lists all events in display order.
func AllEvents() []Event {
	return []Event{WriteRun, ReadRun, Prefetch, SlabHit, SlabMiss, BlockCompressed, RawEscape}
}

// Recorder accumulates time per category. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Recorder struct {
	mu      sync.Mutex
	total   [numCategories]time.Duration
	count   [numCategories]int64
	events  [numEvents]int64
	ops     int64
	ioBytes int64
	// logicalBytes / storedBytes track the data-path accounting the
	// compression stage introduces: logical counts plaintext block
	// bytes moved through the encode/decode pipeline, stored counts the
	// bytes that actually hit (or came from) the backend for them.
	// Without compression the two advance in lockstep.
	logicalBytes int64
	storedBytes  int64
}

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// Add charges d to category c.
func (r *Recorder) Add(c Category, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.total[c] += d
	r.count[c]++
	r.mu.Unlock()
}

// Time runs f and charges its wall time to category c.
func (r *Recorder) Time(c Category, f func()) {
	if r == nil {
		f()
		return
	}
	start := time.Now()
	f()
	r.Add(c, time.Since(start))
}

// Start returns the current instant for use with Stop; the pair avoids
// a closure on hot paths:
//
//	t := rec.Start()
//	... work ...
//	rec.Stop(metrics.Encrypt, t)
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stop charges the time since start (from Start) to category c.
func (r *Recorder) Stop(c Category, start time.Time) {
	if r == nil {
		return
	}
	r.Add(c, time.Since(start))
}

// CountOp increments the high-level operation counter (one per
// read/write request), used to compute per-op latency.
func (r *Recorder) CountOp() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ops++
	r.mu.Unlock()
}

// CountIOBytes adds n bytes to the backend-payload total. Together
// with the I/O category's operation count it yields the mean bytes
// moved per backend call — the coalescing layer's headline metric.
func (r *Recorder) CountIOBytes(n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ioBytes += n
	r.mu.Unlock()
}

// CountDataBytes records one data block (or batch) moving through the
// encode/decode pipeline: logical plaintext bytes versus the stored
// bytes that crossed the backend for them. The ratio of the two
// totals is the live compression ratio.
func (r *Recorder) CountDataBytes(logical, stored int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.logicalBytes += logical
	r.storedBytes += stored
	r.mu.Unlock()
}

// CountEvent adds n occurrences of event e.
func (r *Recorder) CountEvent(e Event, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events[e] += n
	r.mu.Unlock()
}

// Breakdown is an immutable snapshot of a Recorder.
type Breakdown struct {
	Total  [numCategories]time.Duration
	Count  [numCategories]int64
	Events [numEvents]int64
	Ops    int64
	// IOBytes is the total backend payload moved (reads + writes).
	IOBytes int64
	// LogicalBytes / StoredBytes are the data-path totals recorded by
	// CountDataBytes: plaintext block bytes versus bytes on the wire
	// for them.
	LogicalBytes int64
	StoredBytes  int64
}

// Snapshot returns the current totals.
func (r *Recorder) Snapshot() Breakdown {
	if r == nil {
		return Breakdown{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Breakdown{Total: r.total, Count: r.count, Events: r.events, Ops: r.ops,
		IOBytes: r.ioBytes, LogicalBytes: r.logicalBytes, StoredBytes: r.storedBytes}
}

// Reset zeroes the recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.total = [numCategories]time.Duration{}
	r.count = [numCategories]int64{}
	r.events = [numEvents]int64{}
	r.ops = 0
	r.ioBytes = 0
	r.logicalBytes = 0
	r.storedBytes = 0
	r.mu.Unlock()
}

// Event returns the count of event e.
func (b Breakdown) Event(e Event) int64 { return b.Events[e] }

// IOs returns the number of backend I/O calls recorded (the I/O
// category's operation count).
func (b Breakdown) IOs() int64 { return b.Count[IO] }

// BytesPerIO returns the mean payload per backend call, or 0 before
// any I/O.
func (b Breakdown) BytesPerIO() float64 {
	if n := b.Count[IO]; n > 0 {
		return float64(b.IOBytes) / float64(n)
	}
	return 0
}

// CompressionRatio returns logical/stored — how many plaintext bytes
// each stored byte carries. 1.0 with compression off (or on fully
// incompressible data), >1 when compression is saving wire bytes, 0
// before any data moved.
func (b Breakdown) CompressionRatio() float64 {
	if b.StoredBytes > 0 {
		return float64(b.LogicalBytes) / float64(b.StoredBytes)
	}
	return 0
}

// Sum returns the total time across all categories.
func (b Breakdown) Sum() time.Duration {
	var s time.Duration
	for _, d := range b.Total {
		s += d
	}
	return s
}

// Fraction returns category c's share of the total (0 if empty).
func (b Breakdown) Fraction(c Category) float64 {
	sum := b.Sum()
	if sum == 0 {
		return 0
	}
	return float64(b.Total[c]) / float64(sum)
}

// PerOp returns the mean per-operation latency of category c, using
// the high-level op counter.
func (b Breakdown) PerOp(c Category) time.Duration {
	if b.Ops == 0 {
		return 0
	}
	return b.Total[c] / time.Duration(b.Ops)
}

// String formats the breakdown as a one-line summary sorted by share,
// e.g. "GetCEKey 58.1% | Encrypt 22.0% | I/O 12.3% | ...".
func (b Breakdown) String() string {
	type row struct {
		c Category
		f float64
	}
	rows := make([]row, 0, int(numCategories))
	for _, c := range Categories() {
		rows = append(rows, row{c, b.Fraction(c)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].f > rows[j].f })
	parts := make([]string, 0, len(rows))
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", r.c, r.f*100))
	}
	return strings.Join(parts, " | ")
}
