package layout

import (
	"errors"
	"testing"

	"lamassu/internal/cryptoutil"
)

func TestCompressedGeometry(t *testing.T) {
	g := Default()
	if got := g.LenSlots(); got != 4 {
		t.Fatalf("LenSlots = %d, want 4 (ceil(126/33))", got)
	}
	if got := g.CompressedReserved(); got != 4 {
		t.Fatalf("CompressedReserved = %d, want 4", got)
	}
	if got := g.UnitsPerBlock(); got != 64 {
		t.Fatalf("UnitsPerBlock = %d, want 64", got)
	}
	if err := g.CompressionGeometryOK(); err != nil {
		t.Fatalf("default geometry rejected: %v", err)
	}
	// The length table must have room for every stable and transient
	// length byte.
	if need, have := g.KeysPerSegment()+g.CompressedReserved(), g.LenSlots()*SlotSize; need > have {
		t.Fatalf("length table needs %d bytes, has %d", need, have)
	}
	// R too small to cede 4 slots and keep one transient.
	small, err := NewGeometry(DefaultBlockSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.CompressionGeometryOK(); err == nil {
		t.Fatal("R=4 accepted for compression; length table would leave no transient slots")
	}
}

func TestCompressedLengthTableRoundTrip(t *testing.T) {
	g := Default()
	outer := cryptoutil.Key{0: 1, 31: 2}
	m := NewMetaBlock(g, 7)
	// Key slots 0 and 5 before flipping: InitCompressed must mark them
	// raw and leave the holes at zero.
	m.SetStableKey(0, cryptoutil.Key{1})
	m.SetStableKey(5, cryptoutil.Key{5})
	if m.Compressed() {
		t.Fatal("fresh block claims compressed")
	}
	if got := m.EffReserved(); got != g.Reserved {
		t.Fatalf("raw EffReserved = %d, want %d", got, g.Reserved)
	}
	m.InitCompressed()
	if !m.Compressed() {
		t.Fatal("InitCompressed did not set the flag")
	}
	if got := m.EffReserved(); got != g.CompressedReserved() {
		t.Fatalf("compressed EffReserved = %d, want %d", got, g.CompressedReserved())
	}
	units := g.UnitsPerBlock()
	if m.StoredLen(0) != units || m.StoredLen(5) != units {
		t.Fatalf("keyed slots not marked raw: %d, %d", m.StoredLen(0), m.StoredLen(5))
	}
	if m.StoredLen(1) != 0 {
		t.Fatalf("hole slot has stored length %d", m.StoredLen(1))
	}

	m.SetStoredLen(0, 3)
	m.SetStableKey(2, cryptoutil.Key{2})
	m.SetStoredLen(2, uint8(units))
	m.SetTransientKey(1, cryptoutil.Key{0xAA})
	m.SetOldLen(1, 9)
	m.NTransient = 2

	buf := make([]byte, g.BlockSize)
	if err := m.Encode(buf, cryptoutil.NewMetaSealer(outer)); err != nil {
		t.Fatal(err)
	}
	d, err := DecodeMetaBlock(g, buf, cryptoutil.NewMetaSealer(outer), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Compressed() {
		t.Fatal("decoded block lost the compressed flag")
	}
	if d.StoredLen(0) != 3 || d.StoredLen(2) != units || d.StoredLen(5) != units || d.StoredLen(1) != 0 {
		t.Fatalf("stored lengths corrupted in transit: %d %d %d %d",
			d.StoredLen(0), d.StoredLen(2), d.StoredLen(5), d.StoredLen(1))
	}
	if d.OldLen(1) != 9 {
		t.Fatalf("old length corrupted: %d", d.OldLen(1))
	}
	if d.TransientKey(1) != (cryptoutil.Key{0xAA}) {
		t.Fatal("transient key corrupted")
	}

	// ClearTransient keeps the stable length table, drops old lengths.
	d.ClearTransient()
	if d.StoredLen(0) != 3 || d.StoredLen(2) != units {
		t.Fatal("ClearTransient clobbered the stable length table")
	}
	if d.OldLen(1) != 0 {
		t.Fatal("ClearTransient left a stale old length")
	}
	if d.TransientKey(1) != (cryptoutil.Key{}) {
		t.Fatal("ClearTransient left a transient key")
	}
}

func TestCompressedDecodeValidation(t *testing.T) {
	g := Default()
	outer := cryptoutil.Key{0: 9}
	m := NewMetaBlock(g, 0)
	m.SetStableKey(0, cryptoutil.Key{1})
	m.InitCompressed()
	m.SetStoredLen(0, uint8(g.UnitsPerBlock())+1) // out of range
	buf := make([]byte, g.BlockSize)
	if err := m.Encode(buf, cryptoutil.NewMetaSealer(outer)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMetaBlock(g, buf, cryptoutil.NewMetaSealer(outer), 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("oversized stored length decoded: err=%v", err)
	}

	// NTransient above compressed-mode capacity must be rejected even
	// though it is within raw R.
	m2 := NewMetaBlock(g, 0)
	m2.InitCompressed()
	m2.NTransient = uint32(g.CompressedReserved()) + 1
	if err := m2.Encode(buf, cryptoutil.NewMetaSealer(outer)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMetaBlock(g, buf, cryptoutil.NewMetaSealer(outer), 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("oversized compressed NTransient decoded: err=%v", err)
	}
}

// TestRawEncodingUnchanged pins the compression feature's
// compatibility contract: a block that never enters compressed mode
// encodes EXACTLY as before the feature existed — the flag is the
// only switch, there is no passive format change.
func TestRawEncodingUnchanged(t *testing.T) {
	g := Default()
	m := NewMetaBlock(g, 3)
	m.SetStableKey(0, cryptoutil.Key{1})
	m.SetTransientKey(7, cryptoutil.Key{7}) // raw mode: all R slots usable
	m.NTransient = 8
	m.ClearTransient() // raw mode: zeroes the whole reserved region
	for i := g.KeysPerSegment(); i < g.TotalSlots(); i++ {
		if m.Slots[i] != (cryptoutil.Key{}) {
			t.Fatalf("raw ClearTransient left slot %d non-zero", i)
		}
	}
}
