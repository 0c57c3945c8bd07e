package core

import (
	"bytes"
	"errors"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/dedupe"
	"lamassu/internal/faultfs"
	"lamassu/internal/vfs"
)

func TestRekeyOuterPreservesDataBlocks(t *testing.T) {
	store := backend.NewMemStore()
	lfs := newFS(t, store, testConfig())
	data := make([]byte, 250*4096+777)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	before, err := backend.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}

	newOuter := testKey(40)
	st, err := lfs.RekeyOuter("f", newOuter)
	if err != nil {
		t.Fatal(err)
	}
	// 251 data blocks / 118 per segment = 3 segments.
	if st.MetaBlocks != 3 || st.DataBlocks != 0 {
		t.Fatalf("stats = %+v", st)
	}

	after, err := backend.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}
	// Data blocks are byte-identical (the partial re-key touches only
	// metadata, §2.2); metadata blocks changed.
	geo := lfs.Geometry()
	changedMeta := 0
	for seg := int64(0); seg < 3; seg++ {
		off := geo.MetaBlockOffset(seg)
		if !bytes.Equal(before[off:off+4096], after[off:off+4096]) {
			changedMeta++
		}
	}
	if changedMeta != 3 {
		t.Fatalf("only %d metadata blocks re-sealed", changedMeta)
	}
	for dbi := int64(0); dbi < 251; dbi++ {
		off := geo.DataBlockOffset(dbi)
		if !bytes.Equal(before[off:off+4096], after[off:off+4096]) {
			t.Fatalf("data block %d changed during outer-only rekey", dbi)
		}
	}

	// Old outer key no longer opens; new one does and reads the data.
	if _, err := lfs.Open("f"); err == nil {
		t.Fatalf("old outer key still works")
	}
	newFSInst := newFS(t, store, Config{Inner: testKey(1), Outer: newOuter})
	got, err := vfs.ReadAll(newFSInst, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read under new outer key: %v", err)
	}
}

func TestRekeyFullChangesEverything(t *testing.T) {
	store := backend.NewMemStore()
	lfs := newFS(t, store, testConfig())
	data := make([]byte, 130*4096)
	for i := range data {
		data[i] = byte(i >> 8)
	}
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	before, _ := backend.ReadFile(store, "f")

	newInner, newOuter := testKey(50), testKey(51)
	st, err := lfs.RekeyFull("f", newInner, newOuter)
	if err != nil {
		t.Fatal(err)
	}
	if st.MetaBlocks != 2 || st.DataBlocks != 130 {
		t.Fatalf("stats = %+v", st)
	}
	after, _ := backend.ReadFile(store, "f")
	geo := lfs.Geometry()
	for dbi := int64(0); dbi < 130; dbi++ {
		off := geo.DataBlockOffset(dbi)
		if bytes.Equal(before[off:off+4096], after[off:off+4096]) {
			t.Fatalf("data block %d unchanged after full rekey", dbi)
		}
	}

	newFSInst := newFS(t, store, Config{Inner: newInner, Outer: newOuter})
	got, err := vfs.ReadAll(newFSInst, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after full rekey: %v", err)
	}
	rep, err := newFSInst.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit after full rekey: %+v, %v", rep, err)
	}
	if got, err := newFSInst.Stat("f"); err != nil || got != int64(len(data)) {
		t.Fatalf("size after full rekey: %d, %v", got, err)
	}
}

func TestRekeyFullMovesDedupZone(t *testing.T) {
	// After a full rekey, data no longer dedupes against the old zone
	// but does dedupe against other data under the new inner key.
	store := backend.NewMemStore()
	lfs := newFS(t, store, testConfig())
	data := bytes.Repeat([]byte{0xC4}, 50*4096)
	if err := vfs.WriteAll(lfs, "a", data); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteAll(lfs, "b", data); err != nil {
		t.Fatal(err)
	}
	newInner, newOuter := testKey(60), testKey(61)
	if _, err := lfs.RekeyFull("b", newInner, newOuter); err != nil {
		t.Fatal(err)
	}
	newZone := newFS(t, store, Config{Inner: newInner, Outer: newOuter})
	if err := vfs.WriteAll(newZone, "c", data); err != nil {
		t.Fatal(err)
	}
	e, _ := dedupe.NewEngine(4096)
	rep, err := e.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	// Unique: 1 converged data block in the old zone (file a) + 1 in
	// the new zone (b and c share) + 3 metadata blocks.
	if rep.UniqueBlocks != 5 {
		t.Fatalf("UniqueBlocks = %d, want 5", rep.UniqueBlocks)
	}
}

// With an external KeyDeriver, RekeyFull is refused before any write:
// it would re-key every block under the local KDF of the new inner key,
// which reads through the deriver could never verify.
func TestRekeyFullRefusedWithKeyDeriver(t *testing.T) {
	store := backend.NewMemStore()
	cfg := testConfig()
	cfg.KeyDeriver = func(h cryptoutil.Hash) (cryptoutil.Key, error) {
		return cryptoutil.DeriveCEKey(h, testKey(9)), nil
	}
	lfs := newFS(t, store, cfg)
	data := make([]byte, 10*4096)
	for i := range data {
		data[i] = byte(i >> 8)
	}
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	before, err := backend.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := lfs.RekeyFull("f", testKey(50), testKey(51)); err == nil {
		t.Fatal("RekeyFull accepted over an external key deriver")
	}
	after, err := backend.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused RekeyFull changed the file")
	}
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after refused RekeyFull: %v", err)
	}
	if rep, err := lfs.Check("f"); err != nil || !rep.Clean() {
		t.Fatalf("audit after refused RekeyFull: %+v, %v", rep, err)
	}
}

func TestRekeyValidation(t *testing.T) {
	store := backend.NewMemStore()
	lfs := newFS(t, store, testConfig())
	if err := vfs.WriteAll(lfs, "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	var zero [32]byte
	if _, err := lfs.RekeyOuter("f", zero); err == nil {
		t.Errorf("zero outer key accepted")
	}
	if _, err := lfs.RekeyFull("f", zero, testKey(1)); err == nil {
		t.Errorf("zero inner key accepted")
	}
	if _, err := lfs.RekeyFull("f", testKey(1), testKey(1)); err == nil {
		t.Errorf("identical keys accepted")
	}
	if _, err := lfs.RekeyOuter("missing", testKey(3)); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("rekey missing file: %v", err)
	}
	// Empty files rekey trivially.
	if err := vfs.WriteAll(lfs, "empty", nil); err != nil {
		t.Fatal(err)
	}
	if st, err := lfs.RekeyOuter("empty", testKey(3)); err != nil || st.MetaBlocks != 0 {
		t.Errorf("empty rekey: %+v, %v", st, err)
	}
}

func TestRekeyRefusesMidUpdateFile(t *testing.T) {
	// A crashed file must be recovered before rotation.
	mem := backend.NewMemStore()
	fstore := faultfs.New(mem)
	lfs, err := New(fstore, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x13}, 8*4096)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	fstore.Arm(faultfs.ModeCrashAfter, 1, 0)
	f, _ := lfs.OpenRW("f")
	_, _ = f.WriteAt(bytes.Repeat([]byte{0x14}, 4096), 0)
	_ = f.Sync()
	_ = f.Close()
	fstore.Disarm()

	if _, err := lfs.RekeyOuter("f", testKey(70)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("RekeyOuter on midupdate file: %v", err)
	}
	if _, err := lfs.RekeyFull("f", testKey(70), testKey(71)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("RekeyFull on midupdate file: %v", err)
	}
	// After recovery, rotation proceeds.
	if _, err := lfs.Recover("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := lfs.RekeyOuter("f", testKey(70)); err != nil {
		t.Fatalf("rekey after recovery: %v", err)
	}
}
