package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/plainfs"
	"lamassu/internal/shard"
	"lamassu/internal/vfs"
)

// FuzzReadWriteTruncate drives one Lamassu file with an arbitrary
// sequence of writes, reads, truncates and syncs decoded from the fuzz
// input, and cross-checks every observable — read contents, sizes,
// final byte-for-byte state — against internal/plainfs applying the
// identical sequence to a plain backing store. The check runs twice,
// with the block cache off and on: both engines must agree with the
// reference AND with each other, so any cache-coherence bug (a stale
// hit after an overwrite or truncate) surfaces as a divergence.
func FuzzReadWriteTruncate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x10, 0x02, 0x00, 0x03})
	// write far, truncate back, read across the cut
	f.Add([]byte{
		0x00, 0x40, 0x07, // write at block 7
		0x02, 0x02, // truncate into block 2
		0x01, 0x30, 0x00, // read blocks 0..
		0x03,             // sync
		0x00, 0x05, 0x01, // small write at block 1
	})
	// hammer one block with alternating write/read/truncate
	f.Add(bytes.Repeat([]byte{0x00, 0x21, 0x01, 0x01, 0x18, 0x01, 0x02, 0x03}, 6))

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512] // bound op count, not coverage
		}
		// Engine variants: the default (cache off and on), the
		// sequential-read prefetcher armed, and compression on, cache on
		// and off (the fuzz writes are byte-repeats, so nearly every
		// block stores short and the variable-extent read/write paths get
		// the full op soup; with the cache off every compressed read goes
		// to the backend) — all must agree with the plain reference and
		// with each other.
		variants := []struct {
			name string
			mut  func(*Config)
		}{
			{"cache-off", func(c *Config) {}},
			{"cache-on", func(c *Config) { c.CacheBlocks = 8 }},
			{"readahead", func(c *Config) { c.CacheBlocks = 16; c.Readahead = 4 }},
			{"compressed", func(c *Config) { c.Compression = true; c.CacheBlocks = 8 }},
			{"compressed-cache-off", func(c *Config) { c.Compression = true }},
		}
		for _, v := range variants {
			cfg := testConfig()
			cfg.Parallelism = 2
			v.mut(&cfg)
			lfs, err := New(backend.NewMemStore(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			pfs := plainfs.New(backend.NewMemStore())
			runFuzzOps(t, ops, lfs, pfs, cfg.CacheBlocks)
		}
		// Striped-shard variant: 2-block stripes force coalesced runs
		// to split at stripe boundaries constantly; the result must
		// still match the plain reference byte for byte.
		stores := make([]backend.Store, 3)
		for i := range stores {
			stores[i] = backend.NewMemStore()
		}
		ss, err := shard.New(stores, shard.Config{StripeBytes: 2 * 4096})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Parallelism = 2
		lfs, err := New(ss, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runFuzzOps(t, ops, lfs, plainfs.New(backend.NewMemStore()), 0)
	})
}

// runFuzzOps interprets ops against the system under test and the
// plain reference, failing on any divergence.
func runFuzzOps(t *testing.T, ops []byte, lfs *FS, pfs *plainfs.FS, cacheBlocks int) {
	lf, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}

	// next pulls one byte of the program, defaulting to 0 at the end.
	i := 0
	next := func() byte {
		if i >= len(ops) {
			return 0
		}
		b := ops[i]
		i++
		return b
	}

	fill := byte(1)
	for i < len(ops) {
		op := next()
		switch op % 4 {
		case 0: // write
			off := int64(next()) * 256
			n := int(next())*16 + 1
			data := bytes.Repeat([]byte{fill}, n)
			fill++
			ln, lerr := lf.WriteAt(data, off)
			pn, perr := pf.WriteAt(data, off)
			if (lerr == nil) != (perr == nil) || ln != pn {
				t.Fatalf("cache=%d write(%d,%d): lamassu (%d,%v) vs plain (%d,%v)",
					cacheBlocks, off, n, ln, lerr, pn, perr)
			}
		case 1: // read
			off := int64(next()) * 256
			n := int(next())*16 + 1
			lb := make([]byte, n)
			pb := make([]byte, n)
			ln, lerr := lf.ReadAt(lb, off)
			pn, perr := pf.ReadAt(pb, off)
			// Normalize: backends may differ in EOF detail, but byte
			// counts and contents up to the count must agree, and
			// hard errors must not occur on either side.
			if lerr != nil && !errors.Is(lerr, io.EOF) {
				t.Fatalf("cache=%d read(%d,%d): %v", cacheBlocks, off, n, lerr)
			}
			if perr != nil && !errors.Is(perr, io.EOF) {
				t.Fatalf("cache=%d plain read(%d,%d): %v", cacheBlocks, off, n, perr)
			}
			if ln != pn || !bytes.Equal(lb[:ln], pb[:pn]) {
				t.Fatalf("cache=%d read(%d,%d) diverged: %d vs %d bytes", cacheBlocks, off, n, ln, pn)
			}
		case 2: // truncate
			size := int64(next()) * 256
			lerr := lf.Truncate(size)
			perr := pf.Truncate(size)
			if (lerr == nil) != (perr == nil) {
				t.Fatalf("cache=%d truncate(%d): %v vs %v", cacheBlocks, size, lerr, perr)
			}
		case 3: // sync (forces commits mid-sequence)
			if err := lf.Sync(); err != nil {
				t.Fatalf("cache=%d sync: %v", cacheBlocks, err)
			}
			if err := pf.Sync(); err != nil {
				t.Fatalf("cache=%d plain sync: %v", cacheBlocks, err)
			}
		}
	}

	lsz, lerr := lf.Size()
	psz, perr := pf.Size()
	if lerr != nil || perr != nil || lsz != psz {
		t.Fatalf("cache=%d size: (%d,%v) vs (%d,%v)", cacheBlocks, lsz, lerr, psz, perr)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := vfs.ReadAll(lfs, "f")
	if err != nil {
		t.Fatalf("cache=%d final read: %v", cacheBlocks, err)
	}
	want, err := vfs.ReadAll(pfs, "f")
	if err != nil {
		t.Fatalf("cache=%d final plain read: %v", cacheBlocks, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cache=%d final content diverged (len %d vs %d)", cacheBlocks, len(got), len(want))
	}

	// The encrypted file must also audit clean.
	rep, err := lfs.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("cache=%d audit: %+v, %v", cacheBlocks, rep, err)
	}
}
