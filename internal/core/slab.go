package core

import (
	"sync"

	"lamassu/internal/metrics"
)

// slabPool recycles the block-granular scratch buffers of the engine's
// hot paths — the metadata scratch of readMeta/writeMeta, the extent
// slabs fetchContig and verdicts read into, the plaintext slabs of
// readVerdicts, rotation and readahead, the slabs a commit and a
// rotation encode into, the partial-span and decompression scratch of
// ReadAt, readSpans, decodeGroup and decodeStored, and the
// pending-write block buffers — so
// steady-state reads and writes stop paying a heap allocation (and the
// GC a 4 KiB garbage block) per touched block.
//
// Buffers are bucketed by size class: class c holds slabs of exactly
// blockSize<<c bytes, from a single block up to a class large enough
// for a full segment's run slab. A request larger than the top class —
// or a put whose capacity matches no class — falls through to the
// ordinary allocator; with block-aligned runs capped at one segment
// that never happens on the hot paths.
//
// Slabs travel through the pools as *[]byte so a cycle of put/get is
// allocation-free, and the headers themselves are recycled through a
// side pool for the same reason. Each class is a sync.Pool, so idle
// slabs are reclaimed by the GC rather than pinned forever. Put slices
// must not be retained by the caller afterwards. Requests are counted
// only as the recorder's SlabHit/SlabMiss events, which EngineStats
// exposes with the pool hit rate.
type slabPool struct {
	bs      int
	classes []sync.Pool // class c: *[]byte with cap exactly bs<<c
	headers sync.Pool   // spare *[]byte headers (slice nil)
	rec     *metrics.Recorder
}

// newSlabPool sizes the classes so the largest holds at least
// maxBlocks blocks — a full segment's run slab for the configured
// geometry (4 KiB blocks pool up to 4096<<7 = 512 KiB).
func newSlabPool(blockSize, maxBlocks int, rec *metrics.Recorder) *slabPool {
	classes := 1
	for size := blockSize; size < blockSize*maxBlocks; size <<= 1 {
		classes++
	}
	return &slabPool{
		bs:      blockSize,
		classes: make([]sync.Pool, classes),
		rec:     rec,
	}
}

// class returns the smallest class whose slabs hold n bytes, or -1
// when n exceeds the top class.
func (p *slabPool) class(n int) int {
	size := p.bs
	for c := range p.classes {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// get returns a scratch slice of length n. Contents are undefined —
// every user overwrites the full slice before reading it.
func (p *slabPool) get(n int) []byte {
	c := p.class(n)
	if c >= 0 {
		if v := p.classes[c].Get(); v != nil {
			h := v.(*[]byte)
			b := *h
			*h = nil
			p.headers.Put(h)
			p.rec.CountEvent(metrics.SlabHit, 1)
			return b[:n]
		}
	}
	p.rec.CountEvent(metrics.SlabMiss, 1)
	if c < 0 {
		return make([]byte, n)
	}
	return make([]byte, n, p.bs<<c)
}

// put recycles a slice obtained from get. Slices whose capacity does
// not match a class (e.g. from a plain make) are dropped silently.
func (p *slabPool) put(b []byte) {
	if b == nil {
		return
	}
	size := p.bs
	for c := range p.classes {
		if cap(b) == size {
			var h *[]byte
			if v := p.headers.Get(); v != nil {
				h = v.(*[]byte)
			} else {
				h = new([]byte)
			}
			*h = b[:size]
			p.classes[c].Put(h)
			return
		}
		size <<= 1
	}
}
