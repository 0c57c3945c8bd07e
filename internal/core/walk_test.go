package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
	"lamassu/internal/vfs"
)

// slotKind is the state a test leaves one block of a mid-update
// segment in.
type slotKind int

const (
	kindLive    slotKind = iota // untouched by the interrupted commit
	kindNew                     // overwritten, and the new data landed
	kindOld                     // overwritten, the old data still on disk
	kindHole                    // was a hole, keyed, its data never landed
	kindBeyond                  // was a hole past the physical extent, keyed
	kindCorrupt                 // overwritten, bytes matching no key
)

// TestMidUpdateVerdictsAgree holds the audit, recovery and the read
// path to one verdict per slot state. It forges one mid-update segment,
// exactly as a crash between phase 1 and the end of phase 2 leaves it,
// with one block in each state, then asks Check, Recover and ReadAt
// about it. A keyed slot beyond the physical extent and a pre-update
// hole both read, audit and recover as the hole they were; a block
// whose bytes no key owns is BadData, ErrIntegrity and ErrUnrecoverable.
// The compressed run stages each old key with its old stored length.
// The read rows cover every way a block is read: one block at a time,
// multi-block reads from a block boundary and from mid-block, and the
// fill of a partial-block write, read back before any commit.
func TestMidUpdateVerdictsAgree(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, corrupt := range []bool{false, true} {
			name := map[bool]string{false: "raw", true: "compressed"}[compress]
			if corrupt {
				name += "-corrupt"
			}
			t.Run(name, func(t *testing.T) { testMidUpdateVerdictsAgree(t, compress, corrupt) })
		}
	}
}

func testMidUpdateVerdictsAgree(t *testing.T, compress, corrupt bool) {
	const bs = 4096
	kinds := []slotKind{kindNew, kindOld, kindHole, kindLive, kindLive, kindBeyond}
	if corrupt {
		kinds[3] = kindCorrupt
	}
	store := backend.NewMemStore()
	cfg := testConfig()
	cfg.Compression = compress
	lfs := newFS(t, store, cfg)

	// The committed state: every block but the holes holds old data.
	oldData := make([][]byte, len(kinds))
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range kinds {
		if k == kindHole || k == kindBeyond {
			continue
		}
		oldData[i] = compressibleBytes(int64(10+i), bs, 0.2)
		if _, err := f.WriteAt(oldData[i], int64(i*bs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 1 of an interrupted commit over every block not left live,
	// then the phase-2 writes that landed.
	bf, err := store.Open("f", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	meta, err := lfs.readMeta(nil, bf, 0)
	if err != nil {
		t.Fatal(err)
	}
	geo := lfs.Geometry()
	if phys, _ := bf.Size(); phys != geo.DataBlockOffset(5) {
		t.Fatalf("physical size %d, want block 5's slot just past it", phys)
	}
	oldKeys, oldLens := make([]cryptoutil.Key, len(kinds)), make([]int, len(kinds))
	newData := make([][]byte, len(kinds))
	newKeys, newLens := make([]cryptoutil.Key, len(kinds)), make([]int, len(kinds))
	ti := 0
	for i, k := range kinds {
		oldKeys[i], oldLens[i] = meta.StableKey(i), meta.StoredLen(i)
		if k == kindLive {
			continue
		}
		newData[i] = compressibleBytes(int64(20+i), bs, 0.4)
		var hs [1]cryptoutil.Hash
		if _, err := lfs.deriveKeys(newKeys[i:i+1], hs[:], newData[i:i+1]); err != nil {
			t.Fatal(err)
		}
		ct := make([]byte, bs)
		if err := lfs.encode(ct, [][]byte{newData[i]}, newKeys[i:i+1], newLens[i:i+1], compress); err != nil {
			t.Fatal(err)
		}
		if !oldKeys[i].IsZero() {
			meta.SetTransientKey(ti, oldKeys[i])
			if compress {
				meta.SetOldLen(ti, uint8(oldLens[i]))
			}
			ti++
		}
		meta.SetStableKey(i, newKeys[i])
		if compress {
			meta.SetStoredLen(i, uint8(newLens[i]/layout.LenUnit))
		}
		var landed []byte
		switch k {
		case kindNew:
			landed = ct[:newLens[i]]
		case kindCorrupt:
			landed = make([]byte, bs)
			rand.New(rand.NewSource(7)).Read(landed)
		}
		if landed != nil {
			if _, err := bf.WriteAt(landed, geo.DataBlockOffset(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if compress && (oldLens[1] == newLens[1]/layout.LenUnit || oldLens[1]*layout.LenUnit >= bs) {
		t.Fatalf("old length %d units, new %d: the compressed run needs a short old frame of another length",
			oldLens[1], newLens[1]/layout.LenUnit)
	}
	meta.NTransient = uint32(ti)
	meta.SetMidUpdate(true)
	meta.LogicalSize = uint64(len(kinds) * bs)
	if err := lfs.writeMeta(nil, bf, "f", meta); err != nil {
		t.Fatal(err)
	}

	// One expected table: what each state reads as, before recovery and
	// after it.
	zeros := make([]byte, bs)
	want := func(i int) []byte {
		switch kinds[i] {
		case kindLive, kindOld:
			return oldData[i]
		case kindNew:
			return newData[i]
		case kindHole, kindBeyond:
			return zeros
		}
		return nil // ErrIntegrity
	}
	// expect is the table's view of the file's bytes [off, off+n) and the
	// number of them before the first corrupt block, which must not
	// start before off.
	expect := func(off, n int) ([]byte, int) {
		var all []byte
		for i := range kinds {
			w := want(i)
			if w == nil {
				return all[off:], i*bs - off
			}
			all = append(all, w...)
		}
		return all[off : off+n], n
	}
	readsAgree := func(when string) {
		t.Helper()
		r, err := newFS(t, store, cfg).Open("f")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		buf := make([]byte, bs)
		for i := range kinds {
			_, err := r.ReadAt(buf, int64(i*bs))
			if err == io.EOF {
				err = nil
			}
			if w := want(i); w == nil {
				if !errors.Is(err, ErrIntegrity) {
					t.Errorf("%s: block %d (kind %d): ReadAt = %v, want ErrIntegrity", when, i, kinds[i], err)
				}
			} else if err != nil || !bytes.Equal(buf, w) {
				t.Errorf("%s: block %d (kind %d): ReadAt = %v, or wrong bytes", when, i, kinds[i], err)
			}
		}

		for _, off := range []int{0, bs / 2} {
			n := len(kinds)*bs - off
			if off != 0 {
				n -= bs // end mid-block too
			}
			buf := make([]byte, n)
			got, err := r.ReadAt(buf, int64(off))
			w, valid := expect(off, n)
			if valid < n {
				if !errors.Is(err, ErrIntegrity) || got != valid || !bytes.Equal(buf[:got], w) {
					t.Errorf("%s: ReadAt(%d bytes at %d) = %d, %v; want ErrIntegrity after %d valid bytes",
						when, n, off, got, err, valid)
				}
			} else if err != nil || got != n || !bytes.Equal(buf, w) {
				t.Errorf("%s: ReadAt(%d bytes at %d) = %d, %v, or wrong bytes", when, n, off, got, err)
			}
		}

		// A partial write fills its block from the store first. Each
		// handle stages one block and is dropped under a canceled
		// context, which commits nothing.
		patch := bytes.Repeat([]byte{0xa5}, 100)
		for i := range kinds {
			h, err := newFS(t, store, cfg).OpenRW("f")
			if err != nil {
				t.Fatal(err)
			}
			_, werr := h.WriteAt(patch, int64(i*bs+1000))
			_, rerr := h.ReadAt(buf, int64(i*bs))
			if rerr == io.EOF {
				rerr = nil
			}
			if w := want(i); w == nil {
				if !errors.Is(werr, ErrIntegrity) {
					t.Errorf("%s: block %d (kind %d): partial WriteAt = %v, want ErrIntegrity", when, i, kinds[i], werr)
				}
			} else {
				w = append([]byte(nil), w...)
				copy(w[1000:], patch)
				if werr != nil || rerr != nil || !bytes.Equal(buf, w) {
					t.Errorf("%s: block %d (kind %d): partial WriteAt = %v, read back = %v, or wrong bytes",
						when, i, kinds[i], werr, rerr)
				}
			}
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			h.CloseCtx(canceled)
		}
	}
	readsAgree("mid-update")

	rep, err := lfs.Check("f")
	if err != nil {
		t.Fatal(err)
	}
	wantBad := int64(0)
	if corrupt {
		wantBad = 1
	}
	if rep.MidUpdate != 1 || rep.BadMeta != 0 || rep.BadData != wantBad ||
		rep.DataBlocks != int64(len(kinds)-1) || rep.LogicalSize != int64(len(kinds)*bs) {
		t.Fatalf("Check = %+v, want MidUpdate 1, BadData %d, DataBlocks %d", rep, wantBad, len(kinds)-1)
	}

	st, err := lfs.Recover("f")
	if corrupt {
		if !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("Recover = %+v, %v; want ErrUnrecoverable", st, err)
		}
		if again, err := lfs.Check("f"); err != nil || again != rep {
			t.Fatalf("failed recovery changed the audit: %+v, %v", again, err)
		}
		return
	}
	if err != nil || st.Repaired != 1 {
		t.Fatalf("Recover = %+v, %v", st, err)
	}
	got, err := lfs.readMeta(nil, bf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.MidUpdate() || got.NTransient != 0 {
		t.Fatalf("recovered segment still midupdate (%d transient)", got.NTransient)
	}
	for i, k := range kinds {
		wantKey, wantLen := oldKeys[i], oldLens[i] // kindLive, kindOld
		switch k {
		case kindNew:
			wantKey, wantLen = newKeys[i], newLens[i]/layout.LenUnit
		case kindHole, kindBeyond:
			wantKey, wantLen = cryptoutil.Key{}, 0
		}
		if !got.StableKey(i).Equal(wantKey) {
			t.Errorf("block %d (kind %d): recovered to the wrong key", i, k)
		}
		if compress && got.StoredLen(i) != wantLen {
			t.Errorf("block %d (kind %d): recovered length %d units, want %d", i, k, got.StoredLen(i), wantLen)
		}
	}
	readsAgree("recovered")
	if rep, err := lfs.Check("f"); err != nil || !rep.Clean() || rep.DataBlocks != 4 {
		t.Fatalf("audit after recovery: %+v, %v", rep, err)
	}
}

// TestAuditReadsPerExtent pins the segment walk's read shape: Check,
// Recover and RekeyFull each read a segment's keyed slots with one
// backend read per planned extent — the whole segment when its keyed
// slots are dense and the store unsharded, and split at every stripe
// edge when the store stripes finer than a segment.
func TestAuditReadsPerExtent(t *testing.T) {
	const bs = 4096
	for _, stripe := range []int64{0, 32 * bs} {
		name := "unsharded"
		if stripe > 0 {
			name = "stripe-32-blocks"
		}
		t.Run(name, func(t *testing.T) {
			ps := &planStore{Store: backend.NewMemStore()}
			var store backend.Store = ps
			if stripe > 0 {
				ps.stripe = stripe
				store = stripedPlanStore{ps}
			}
			lfs := newFS(t, store, testConfig())
			geo := lfs.Geometry()
			kps := int64(geo.KeysPerSegment())
			blocks := 2*kps + 50 // three segments, the last partial
			data := make([]byte, blocks*bs)
			rand.New(rand.NewSource(3)).Read(data)
			if err := vfs.WriteAll(lfs, "f", data); err != nil {
				t.Fatal(err)
			}

			// The planned extents, from the layout alone: a segment's
			// blocks, cut where a stripe ends.
			var want []planOp
			for b := int64(0); b < blocks; b++ {
				off := geo.DataBlockOffset(b)
				if b%kps != 0 && (stripe == 0 || (off-bs)/stripe == off/stripe) {
					want[len(want)-1].n += bs
					continue
				}
				want = append(want, planOp{off: off, n: bs})
			}
			if stripe == 0 && len(want) != 3 {
				t.Fatalf("%d planned extents for a dense 3-segment file, want 3", len(want))
			}
			isMeta := func(off int64) bool {
				for s := int64(0); s < 3; s++ {
					if off == geo.MetaBlockOffset(s) {
						return true
					}
				}
				return false
			}
			dataOps := func(ops []planOp) []planOp {
				var out []planOp
				for _, op := range ops {
					if !isMeta(op.off) {
						out = append(out, op)
					}
				}
				return out
			}
			pin := func(what string) {
				t.Helper()
				reads, _ := ps.take()
				if got := dataOps(reads); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s data reads (off, len):\n got  %v\n want %v", what, got, want)
				}
			}

			ps.take()
			if rep, err := lfs.Check("f"); err != nil || !rep.Clean() || rep.DataBlocks != blocks {
				t.Fatalf("Check = %+v, %v", rep, err)
			}
			pin("Check")

			// Every segment marked midupdate with nothing staged: recovery
			// reads every keyed slot, finds each new, and clears the flags.
			bf, err := store.Open("f", backend.OpenWrite)
			if err != nil {
				t.Fatal(err)
			}
			for s := int64(0); s < 3; s++ {
				meta, err := lfs.readMeta(nil, bf, s)
				if err != nil {
					t.Fatal(err)
				}
				meta.SetMidUpdate(true)
				if err := lfs.writeMeta(nil, bf, "f", meta); err != nil {
					t.Fatal(err)
				}
			}
			bf.Close()
			ps.take()
			if st, err := lfs.Recover("f"); err != nil || st.Repaired != 3 {
				t.Fatalf("Recover = %+v, %v", st, err)
			}
			pin("Recover")

			if st, err := lfs.RekeyFull("f", testKey(50), testKey(51)); err != nil || st.DataBlocks != blocks {
				t.Fatalf("RekeyFull = %+v, %v", st, err)
			}
			reads, writes := ps.take()
			if got := dataOps(reads); !reflect.DeepEqual(got, want) {
				t.Fatalf("RekeyFull data reads (off, len):\n got  %v\n want %v", got, want)
			}
			if got := dataOps(writes); !reflect.DeepEqual(got, want) {
				t.Fatalf("RekeyFull data writes (off, len):\n got  %v\n want %v", got, want)
			}
			got, err := vfs.ReadAll(newFS(t, store, Config{Inner: testKey(50), Outer: testKey(51)}), "f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after RekeyFull: %v", err)
			}
		})
	}
}
