package layout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lamassu/internal/cryptoutil"
)

func key(b byte) cryptoutil.Key {
	var k cryptoutil.Key
	for i := range k {
		k[i] = b + byte(i)
	}
	return k
}

func TestPaperSlotArithmetic(t *testing.T) {
	// Paper §3: with 4096-byte blocks and R=1 a metadata block stores
	// 125 keys and the minimum overhead ratio is 1/125 = 0.8 %.
	g, err := NewGeometry(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.TotalSlots(); got != 126 {
		t.Fatalf("TotalSlots = %d, want 126", got)
	}
	if got := g.KeysPerSegment(); got != 125 {
		t.Fatalf("KeysPerSegment(R=1) = %d, want 125", got)
	}
	if ratio := g.MinOverheadRatio(); ratio != 1.0/125 {
		t.Fatalf("MinOverheadRatio(R=1) = %v, want 0.008", ratio)
	}

	// Paper §4: with R=8 a segment is one metadata block followed by
	// 118 data blocks and the minimum overhead is 0.85 %.
	g8, err := NewGeometry(4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := g8.KeysPerSegment(); got != 118 {
		t.Fatalf("KeysPerSegment(R=8) = %d, want 118", got)
	}
	if got := g8.SegmentBlocks(); got != 119 {
		t.Fatalf("SegmentBlocks(R=8) = %d, want 119", got)
	}
	ratio := g8.MinOverheadRatio()
	if ratio < 0.0084 || ratio > 0.0086 {
		t.Fatalf("MinOverheadRatio(R=8) = %v, want ~0.0085", ratio)
	}
}

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		bs, r  int
		wantOK bool
	}{
		{4096, 8, true},
		{4096, 1, true},
		{4096, 125, true},
		{4096, 126, false}, // no stable slots left
		{4096, 0, false},
		{4096, -1, false},
		{512, 8, true},
		{100, 1, false},  // not multiple of 64
		{64, 1, false},   // below minimum
		{4095, 8, false}, // not multiple of 64
	}
	for _, c := range cases {
		_, err := NewGeometry(c.bs, c.r)
		if (err == nil) != c.wantOK {
			t.Errorf("NewGeometry(%d,%d) err=%v, wantOK=%v", c.bs, c.r, err, c.wantOK)
		}
		if err != nil && !errors.Is(err, ErrBadGeometry) {
			t.Errorf("NewGeometry(%d,%d) error not ErrBadGeometry: %v", c.bs, c.r, err)
		}
	}
}

func TestDefaultGeometry(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if g.BlockSize != 4096 || g.Reserved != 8 {
		t.Fatalf("default geometry = %+v", g)
	}
}

func TestPaperSizeEquations(t *testing.T) {
	g, _ := NewGeometry(4096, 8) // K = 118
	cases := []struct {
		n        int64
		ndb, nmb int64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{4096, 1, 1},
		{4097, 2, 1},
		{118 * 4096, 118, 1},
		{118*4096 + 1, 119, 2},
		{236 * 4096, 236, 2},
		{1 << 30, 262144, 2222}, // 1 GiB
	}
	for _, c := range cases {
		if got := g.NumDataBlocks(c.n); got != c.ndb {
			t.Errorf("NumDataBlocks(%d) = %d, want %d", c.n, got, c.ndb)
		}
		if got := g.NumMetaBlocks(c.n); got != c.nmb {
			t.Errorf("NumMetaBlocks(%d) = %d, want %d", c.n, got, c.nmb)
		}
		wantPhys := (c.ndb + c.nmb) * 4096
		if got := g.PhysicalSize(c.n); got != wantPhys {
			t.Errorf("PhysicalSize(%d) = %d, want %d", c.n, got, wantPhys)
		}
		if got := g.Overhead(c.n); got != wantPhys-c.n {
			t.Errorf("Overhead(%d) = %d, want %d", c.n, got, wantPhys-c.n)
		}
	}
}

// Equation (8): for a file that exactly fills its segments the
// overhead is n/NumKeysMB.
func TestMinOverheadEquation(t *testing.T) {
	g, _ := NewGeometry(4096, 1) // K = 125
	n := int64(125 * 4096 * 7)   // exactly 7 full segments
	if got, want := g.Overhead(n), n/125; got != want {
		t.Fatalf("Overhead(full segments) = %d, want n/NumKeysMB = %d", got, want)
	}
}

func TestOffsetMapping(t *testing.T) {
	g, _ := NewGeometry(4096, 8) // K=118, segment = 119 blocks
	// First data block of segment 0 sits right after the metadata
	// block.
	if got := g.DataBlockOffset(0); got != 4096 {
		t.Fatalf("DataBlockOffset(0) = %d, want 4096", got)
	}
	// Last data block of segment 0.
	if got := g.DataBlockOffset(117); got != 118*4096 {
		t.Fatalf("DataBlockOffset(117) = %d, want %d", got, 118*4096)
	}
	// First data block of segment 1: skip 119 blocks + 1 metadata.
	if got := g.DataBlockOffset(118); got != 120*4096 {
		t.Fatalf("DataBlockOffset(118) = %d, want %d", got, 120*4096)
	}
	if got := g.MetaBlockOffset(1); got != 119*4096 {
		t.Fatalf("MetaBlockOffset(1) = %d, want %d", got, 119*4096)
	}
	if got := g.SegmentOfBlock(118); got != 1 {
		t.Fatalf("SegmentOfBlock(118) = %d, want 1", got)
	}
	if got := g.SlotOfBlock(118); got != 0 {
		t.Fatalf("SlotOfBlock(118) = %d, want 0", got)
	}
	// Mid-block logical offsets preserve the intra-block offset.
	if got := g.LogicalToPhysical(4096 + 123); got != 2*4096+123 {
		t.Fatalf("LogicalToPhysical = %d", got)
	}
}

// TestMaxLogicalSize: the largest file's physical layout fits an int64
// and one more segment would not.
func TestMaxLogicalSize(t *testing.T) {
	for _, r := range []int{1, 8} {
		g, err := NewGeometry(4096, r)
		if err != nil {
			t.Fatal(err)
		}
		limit := g.MaxLogicalSize()
		phys := g.PhysicalSize(limit)
		if limit <= 0 || phys < limit || math.MaxInt64-phys >= g.SegmentPhysBytes() {
			t.Fatalf("R=%d: MaxLogicalSize %d lays out in %d physical bytes", r, limit, phys)
		}
		if got := g.LogicalToPhysical(limit - 1); got != phys-1 {
			t.Fatalf("R=%d: last byte maps to %d, want %d", r, got, phys-1)
		}
	}
}

// Property: PhysicalToLogical inverts LogicalToPhysical for all data
// offsets, and physical offsets of metadata blocks are identified.
func TestQuickOffsetBijection(t *testing.T) {
	geos := []Geometry{
		{4096, 8}, {4096, 1}, {4096, 60}, {512, 3}, {1024, 14},
	}
	for _, g := range geos {
		if err := g.Validate(); err != nil {
			t.Fatalf("geometry %+v: %v", g, err)
		}
		f := func(off int64) bool {
			if off < 0 {
				off = -off
			}
			off %= 1 << 40
			phys := g.LogicalToPhysical(off)
			back, isData := g.PhysicalToLogical(phys)
			return isData && back == off
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("geometry %+v: %v", g, err)
		}
		// Metadata offsets map to (segment, false).
		for seg := int64(0); seg < 5; seg++ {
			s, isData := g.PhysicalToLogical(g.MetaBlockOffset(seg))
			if isData || s != seg {
				t.Errorf("geometry %+v: PhysicalToLogical(meta %d) = (%d,%v)", g, seg, s, isData)
			}
		}
	}
}

// Property: every data block offset is block-aligned and never
// collides with a metadata block offset.
func TestQuickNoOffsetCollisions(t *testing.T) {
	g, _ := NewGeometry(4096, 8)
	f := func(a, b uint32) bool {
		da := g.DataBlockOffset(int64(a % 100000))
		db := g.DataBlockOffset(int64(b % 100000))
		if da%int64(g.BlockSize) != 0 {
			return false
		}
		if a%100000 != b%100000 && da == db {
			return false
		}
		// data offsets never equal any metadata offset
		seg := da / g.SegmentPhysBytes()
		return da != g.MetaBlockOffset(seg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaBlockRoundTrip(t *testing.T) {
	g, _ := NewGeometry(4096, 8)
	outer := key(1)
	m := NewMetaBlock(g, 42)
	m.LogicalSize = 123456789
	m.SetMidUpdate(true)
	m.NTransient = 3
	for i := 0; i < g.KeysPerSegment(); i++ {
		m.SetStableKey(i, key(byte(i)))
	}
	for r := 0; r < 3; r++ {
		m.SetTransientKey(r, key(byte(200+r)))
	}

	buf := make([]byte, g.BlockSize)
	if err := m.Encode(buf, cryptoutil.NewMetaSealer(outer)); err != nil {
		t.Fatal(err)
	}

	got, err := DecodeMetaBlock(g, buf, cryptoutil.NewMetaSealer(outer), 42)
	if err != nil {
		t.Fatalf("DecodeMetaBlock: %v", err)
	}
	if got.SegIndex != 42 || got.LogicalSize != 123456789 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.MidUpdate() || got.NTransient != 3 {
		t.Fatalf("flags/ntransient mismatch: flags=%x n=%d", got.Flags, got.NTransient)
	}
	for i := 0; i < g.KeysPerSegment(); i++ {
		if !got.StableKey(i).Equal(key(byte(i))) {
			t.Fatalf("stable slot %d mismatch", i)
		}
	}
	for r := 0; r < 3; r++ {
		if !got.TransientKey(r).Equal(key(byte(200 + r))) {
			t.Fatalf("transient slot %d mismatch", r)
		}
	}
}

// TestMetaBlockPayloadLayout pins the sealed payload byte for byte:
// the header fields, then every slot in order, with no stale bytes of
// dst surviving (the nonce makes the sealed block itself random, so
// this is the format's plaintext golden).
func TestMetaBlockPayloadLayout(t *testing.T) {
	for _, bs := range []int{128, 4096, 4160, 8192} {
		g, err := NewGeometry(bs, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMetaBlock(g, 7)
		m.LogicalSize, m.Flags, m.NTransient = 0x0102030405060708, FlagMidUpdate, 1
		for i := range m.Slots {
			m.Slots[i] = key(byte(3 * i))
		}
		want := make([]byte, 0, bs-32)
		want = binary.LittleEndian.AppendUint32(want, Magic)
		want = binary.LittleEndian.AppendUint16(want, Version)
		l2, _ := blockSizeLog2(bs)
		want = append(want, l2, 1)
		want = binary.LittleEndian.AppendUint64(want, 7)
		want = binary.LittleEndian.AppendUint64(want, m.LogicalSize)
		want = binary.LittleEndian.AppendUint32(want, FlagMidUpdate)
		want = binary.LittleEndian.AppendUint32(want, 1)
		for _, k := range m.Slots {
			want = append(want, k[:]...)
		}
		buf := bytes.Repeat([]byte{0xAA}, bs)
		s := cryptoutil.NewMetaSealer(key(4))
		if err := m.Encode(buf, s); err != nil {
			t.Fatal(err)
		}
		// DecodeMetaBlock opens in place: the payload is left in the clear
		// between the 16-byte nonce and the tag it moved to the end.
		if _, err := DecodeMetaBlock(g, buf, s, 7); err != nil {
			t.Fatal(err)
		}
		if got := buf[16 : bs-16]; !bytes.Equal(got, want) {
			t.Fatalf("bs=%d: sealed payload differs from the format", bs)
		}
	}
}

func TestMetaBlockEncodeRandomizedNonce(t *testing.T) {
	g := Default()
	outer := key(3)
	m := NewMetaBlock(g, 0)
	a := make([]byte, g.BlockSize)
	b := make([]byte, g.BlockSize)
	if err := m.Encode(a, cryptoutil.NewMetaSealer(outer)); err != nil {
		t.Fatal(err)
	}
	if err := m.Encode(b, cryptoutil.NewMetaSealer(outer)); err != nil {
		t.Fatal(err)
	}
	// Nonconvergent: two encodings of the same metadata must differ
	// (random IV, paper Equation 3) so metadata never deduplicates.
	if string(a) == string(b) {
		t.Fatalf("metadata encodings are identical; nonce not randomized")
	}
}

func TestDecodeMetaBlockErrors(t *testing.T) {
	g := Default()
	outer := key(4)
	m := NewMetaBlock(g, 7)
	buf := make([]byte, g.BlockSize)
	if err := m.Encode(buf, cryptoutil.NewMetaSealer(outer)); err != nil {
		t.Fatal(err)
	}

	// DecodeMetaBlock decodes in its input, so each case gets a copy.
	// Wrong outer key.
	if _, err := DecodeMetaBlock(g, bytes.Clone(buf), cryptoutil.NewMetaSealer(key(5)), 7); !errors.Is(err, cryptoutil.ErrAuth) {
		t.Errorf("wrong key: err=%v, want ErrAuth", err)
	}
	// Corrupted byte in sealed region.
	bad := append([]byte(nil), buf...)
	bad[100] ^= 1
	if _, err := DecodeMetaBlock(g, bad, cryptoutil.NewMetaSealer(outer), 7); !errors.Is(err, cryptoutil.ErrAuth) {
		t.Errorf("corruption: err=%v, want ErrAuth", err)
	}
	// Wrong expected segment (block swap detection).
	if _, err := DecodeMetaBlock(g, bytes.Clone(buf), cryptoutil.NewMetaSealer(outer), 8); !errors.Is(err, ErrWrongSeg) {
		t.Errorf("segment swap: err=%v, want ErrWrongSeg", err)
	}
	// Wrong length.
	if _, err := DecodeMetaBlock(g, bytes.Clone(buf[:100]), cryptoutil.NewMetaSealer(outer), 7); !errors.Is(err, ErrBadBlock) {
		t.Errorf("short block: err=%v, want ErrBadBlock", err)
	}
	// Geometry mismatch (different R).
	g2, _ := NewGeometry(4096, 9)
	if _, err := DecodeMetaBlock(g2, bytes.Clone(buf), cryptoutil.NewMetaSealer(outer), 7); !errors.Is(err, ErrBadBlock) {
		t.Errorf("R mismatch: err=%v, want ErrBadBlock", err)
	}
}

func TestMetaBlockClone(t *testing.T) {
	g := Default()
	m := NewMetaBlock(g, 1)
	m.SetStableKey(0, key(9))
	c := m.Clone()
	c.SetStableKey(0, key(10))
	if m.StableKey(0).Equal(key(10)) {
		t.Fatalf("Clone shares slot storage with original")
	}
}

func TestMetaBlockCloneInto(t *testing.T) {
	g := Default()
	m := NewMetaBlock(g, 1)
	m.LogicalSize = 9
	m.SetStableKey(0, key(9))
	dst := NewMetaBlock(g, 5)
	slots := &dst.Slots[0]
	if got := m.CloneInto(dst); got != dst || &dst.Slots[0] != slots {
		t.Fatal("CloneInto did not reuse dst and its slot table")
	}
	if dst.SegIndex != 1 || dst.LogicalSize != 9 || !dst.StableKey(0).Equal(key(9)) {
		t.Fatalf("CloneInto copied %+v", dst)
	}
	dst.SetStableKey(0, key(10))
	if m.StableKey(0).Equal(key(10)) {
		t.Fatal("CloneInto shares slot storage with the original")
	}
	if c := m.CloneInto(nil); c == m || !c.StableKey(0).Equal(key(9)) {
		t.Fatal("CloneInto(nil) is not a Clone")
	}
}

func TestClearTransient(t *testing.T) {
	g, _ := NewGeometry(4096, 4)
	m := NewMetaBlock(g, 0)
	for r := 0; r < 4; r++ {
		m.SetTransientKey(r, key(byte(r+1)))
	}
	m.NTransient = 4
	m.ClearTransient()
	if m.NTransient != 0 {
		t.Fatalf("NTransient not cleared")
	}
	for r := 0; r < 4; r++ {
		if !m.TransientKey(r).IsZero() {
			t.Fatalf("transient slot %d not zeroed", r)
		}
	}
	// Stable slots untouched.
	for i := 0; i < g.KeysPerSegment(); i++ {
		if !m.StableKey(i).IsZero() {
			t.Fatalf("stable slot %d modified by ClearTransient", i)
		}
	}
}

func TestSlotAccessorPanics(t *testing.T) {
	g := Default()
	m := NewMetaBlock(g, 0)
	mustPanic(t, func() { m.SetStableKey(g.KeysPerSegment(), key(1)) })
	mustPanic(t, func() { m.SetStableKey(-1, key(1)) })
	mustPanic(t, func() { m.SetTransientKey(g.Reserved, key(1)) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

// Property: Encode/Decode round-trips arbitrary metadata contents
// across several geometries.
func TestQuickMetaCodecRoundTrip(t *testing.T) {
	outer := key(17)
	geos := []Geometry{{4096, 8}, {512, 2}, {1024, 30}}
	rng := rand.New(rand.NewSource(1))
	for _, g := range geos {
		buf := make([]byte, g.BlockSize)
		for iter := 0; iter < 25; iter++ {
			m := NewMetaBlock(g, rng.Uint64()%1e6)
			m.LogicalSize = rng.Uint64() % (1 << 45)
			if rng.Intn(2) == 1 {
				m.SetMidUpdate(true)
			}
			m.NTransient = uint32(rng.Intn(g.Reserved + 1))
			for i := range m.Slots {
				var k cryptoutil.Key
				rng.Read(k[:])
				m.Slots[i] = k
			}
			if err := m.Encode(buf, cryptoutil.NewMetaSealer(outer)); err != nil {
				t.Fatalf("geometry %+v: Encode: %v", g, err)
			}
			got, err := DecodeMetaBlock(g, buf, cryptoutil.NewMetaSealer(outer), m.SegIndex)
			if err != nil {
				t.Fatalf("geometry %+v: Decode: %v", g, err)
			}
			if got.LogicalSize != m.LogicalSize || got.Flags != m.Flags || got.NTransient != m.NTransient {
				t.Fatalf("geometry %+v: header round-trip mismatch", g)
			}
			for i := range m.Slots {
				if !got.Slots[i].Equal(m.Slots[i]) {
					t.Fatalf("geometry %+v: slot %d mismatch", g, i)
				}
			}
		}
	}
}

// Property: DataBlockFraction matches the explicit NDB/(NDB+NMB)
// computation and decreases (weakly) as R grows.
func TestQuickDataBlockFractionMonotoneInR(t *testing.T) {
	f := func(sz uint32, r1, r2 uint8) bool {
		n := int64(sz)%(1<<28) + 4096
		ra := int(r1)%100 + 1
		rb := int(r2)%100 + 1
		if ra > rb {
			ra, rb = rb, ra
		}
		ga, _ := NewGeometry(4096, ra)
		gb, _ := NewGeometry(4096, rb)
		return ga.DataBlockFraction(n) >= gb.DataBlockFraction(n)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMetaEncode(b *testing.B) {
	g := Default()
	outer := key(1)
	m := NewMetaBlock(g, 1)
	buf := make([]byte, g.BlockSize)
	b.SetBytes(int64(g.BlockSize))
	for i := 0; i < b.N; i++ {
		if err := m.Encode(buf, cryptoutil.NewMetaSealer(outer)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetaDecode(b *testing.B) {
	g := Default()
	outer := key(1)
	m := NewMetaBlock(g, 1)
	buf := make([]byte, g.BlockSize)
	if err := m.Encode(buf, cryptoutil.NewMetaSealer(outer)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(g.BlockSize))
	work := make([]byte, len(buf)) // DecodeMetaBlock decodes in its input
	for i := 0; i < b.N; i++ {
		copy(work, buf)
		if _, err := DecodeMetaBlock(g, work, cryptoutil.NewMetaSealer(outer), 1); err != nil {
			b.Fatal(err)
		}
	}
}
