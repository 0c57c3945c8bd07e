// Package layout implements the on-disk geometry of a Lamassu file
// (paper §2.3, Figures 2 and 3) and the metadata-block codec.
//
// A Lamassu file is a sequence of fixed-size segments. Each segment
// starts with one metadata block followed by K data blocks, where K is
// the number of stable key slots per metadata block. All blocks are
// BlockSize bytes and are aligned to BlockSize within the backing
// file, so the encrypted data blocks keep the block alignment the
// downstream fixed-block deduplication engine relies on.
//
// The slot table holds TotalSlots = BlockSize/32 − 2 key slots (126
// for the default 4096-byte block, matching the paper). R of those are
// reserved as transient slots used by the multiphase commit to hold
// the previous keys of in-flight blocks (paper §2.4), leaving
// K = TotalSlots − R stable slots — exactly the paper's arithmetic
// (R=1 → 125 keys per segment, minimum overhead 0.8 %; R=8 → 118,
// 0.85 %).
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"lamassu/internal/cryptoutil"
)

// Magic identifies a Lamassu metadata block after decryption.
const Magic uint32 = 0x4C4D5355 // "LMSU"

// Version is the current on-disk format version.
const Version uint16 = 1

// DefaultBlockSize is the block size used throughout the paper's
// evaluation.
const DefaultBlockSize = 4096

// DefaultReservedSlots is the paper's default R (fixed to 8 for most
// experiments).
const DefaultReservedSlots = 8

// SlotSize is the size of one key slot (a 32-byte convergent key).
const SlotSize = cryptoutil.KeySize

// sealedHeaderSize is the fixed portion of the GCM-sealed payload that
// precedes the slot table.
const sealedHeaderSize = 32

// clearHeaderSize is the unencrypted prefix of a metadata block:
// 16 bytes of nonce space plus the 16-byte GCM tag.
const clearHeaderSize = 32

// Flag bits stored in the metadata header.
const (
	// FlagMidUpdate marks a segment whose multiphase commit was begun
	// but not yet completed (paper §2.4).
	FlagMidUpdate uint32 = 1 << 0
	// FlagCompressed marks a segment whose data blocks carry
	// deterministically compressed payloads: each block's ciphertext is
	// a prefix of its fixed slot, and the stored length (in LenUnit
	// granules) lives in the length table carved from the last
	// LenSlots reserved slots. Block addressing is unchanged.
	FlagCompressed uint32 = 1 << 1
)

// LenUnit is the granule of the stored-length table: compressed
// payloads occupy a whole number of 64-byte units at the front of
// their block slot. 64 bytes keeps a length in one byte for every
// practical block size while wasting at most 63 bytes per block.
const LenUnit = 64

// Errors returned by the codec.
var (
	ErrBadGeometry = errors.New("layout: invalid geometry parameters")
	ErrBadMagic    = errors.New("layout: bad magic (not a Lamassu metadata block)")
	ErrBadVersion  = errors.New("layout: unsupported metadata version")
	ErrBadBlock    = errors.New("layout: malformed metadata block")
	ErrWrongSeg    = errors.New("layout: metadata block belongs to a different segment")
)

// Geometry captures the static layout parameters of a Lamassu file.
type Geometry struct {
	// BlockSize is the size in bytes of every block (data and
	// metadata). It must be a multiple of 64 and at least 128 so the
	// slot table is non-empty.
	BlockSize int
	// Reserved is R, the number of transient key slots per metadata
	// block (paper §2.4). 1 ≤ Reserved ≤ TotalSlots−1.
	Reserved int
}

// NewGeometry validates and returns a Geometry.
func NewGeometry(blockSize, reserved int) (Geometry, error) {
	g := Geometry{BlockSize: blockSize, Reserved: reserved}
	if err := g.Validate(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// Default returns the paper's standard geometry: 4096-byte blocks,
// R = 8.
func Default() Geometry {
	return Geometry{BlockSize: DefaultBlockSize, Reserved: DefaultReservedSlots}
}

// Validate checks the geometry invariants.
func (g Geometry) Validate() error {
	if g.BlockSize < 128 || g.BlockSize%64 != 0 {
		return fmt.Errorf("%w: block size %d must be a multiple of 64 and >= 128", ErrBadGeometry, g.BlockSize)
	}
	total := g.TotalSlots()
	if g.Reserved < 1 || g.Reserved >= total {
		return fmt.Errorf("%w: reserved slots %d must be in [1,%d]", ErrBadGeometry, g.Reserved, total-1)
	}
	return nil
}

// TotalSlots returns the total number of 32-byte key slots in a
// metadata block: (BlockSize − clear header − sealed header)/32 =
// BlockSize/32 − 2.
func (g Geometry) TotalSlots() int {
	return (g.BlockSize - clearHeaderSize - sealedHeaderSize) / SlotSize
}

// KeysPerSegment returns K, the number of data blocks governed by one
// metadata block (the paper's NumKeysMB).
func (g Geometry) KeysPerSegment() int { return g.TotalSlots() - g.Reserved }

// LenSlots returns the number of reserved slots the stored-length
// table occupies when a segment is in compressed mode. The table
// needs one byte per stable slot plus one byte per remaining
// transient slot — TotalSlots − LenSlots bytes in 32·LenSlots bytes
// of slot space, so LenSlots = ceil(TotalSlots/33) (4 slots at the
// default geometry). The table always lives in the LAST LenSlots
// slots, leaving CompressedReserved transient key slots before it.
func (g Geometry) LenSlots() int {
	return (g.TotalSlots() + SlotSize) / (SlotSize + 1)
}

// CompressedReserved returns the effective number of transient key
// slots available to the multiphase commit when the segment is in
// compressed mode: Reserved minus the slots ceded to the length
// table. It may be zero or negative for small R — compression then
// requires a larger Reserved (see CompressionGeometryOK).
func (g Geometry) CompressedReserved() int { return g.Reserved - g.LenSlots() }

// UnitsPerBlock returns the number of LenUnit granules in one block.
// A stored-length byte of exactly this value means "raw, full block";
// 1..UnitsPerBlock−1 is a compressed prefix; 0 is a hole.
func (g Geometry) UnitsPerBlock() int { return g.BlockSize / LenUnit }

// CompressionGeometryOK reports whether this geometry can host
// compressed segments: the length table must leave at least one
// transient slot for the commit protocol, and a full block's unit
// count must fit the one-byte length encoding.
func (g Geometry) CompressionGeometryOK() error {
	if g.CompressedReserved() < 1 {
		return fmt.Errorf("%w: compression needs Reserved >= %d (length table takes %d slots)",
			ErrBadGeometry, g.LenSlots()+1, g.LenSlots())
	}
	if g.UnitsPerBlock() > 255 {
		return fmt.Errorf("%w: compression needs BlockSize <= %d (one-byte length units)",
			ErrBadGeometry, 255*LenUnit)
	}
	return nil
}

// SegmentBlocks returns the total number of blocks in a full segment,
// including the metadata block.
func (g Geometry) SegmentBlocks() int { return g.KeysPerSegment() + 1 }

// SegmentDataBytes returns the logical payload capacity of one
// segment.
func (g Geometry) SegmentDataBytes() int64 {
	return int64(g.KeysPerSegment()) * int64(g.BlockSize)
}

// SegmentPhysBytes returns the on-disk size of one full segment.
func (g Geometry) SegmentPhysBytes() int64 {
	return int64(g.SegmentBlocks()) * int64(g.BlockSize)
}

// MaxLogicalSize returns the largest logical file size whose physical
// layout stays within int64 byte offsets: as many whole segments as
// fit.
func (g Geometry) MaxLogicalSize() int64 {
	return math.MaxInt64 / g.SegmentPhysBytes() * g.SegmentDataBytes()
}

// NumDataBlocks implements the paper's Equation (4):
// NDB = ceil(n / BlockSize) for a logical size of n bytes.
func (g Geometry) NumDataBlocks(logicalSize int64) int64 {
	if logicalSize <= 0 {
		return 0
	}
	bs := int64(g.BlockSize)
	return (logicalSize + bs - 1) / bs
}

// NumMetaBlocks implements the paper's Equation (5):
// NMB = ceil(NDB / NumKeysMB). A zero-length file still carries one
// metadata block once created, but for the paper's size formulas an
// empty file has no blocks.
func (g Geometry) NumMetaBlocks(logicalSize int64) int64 {
	ndb := g.NumDataBlocks(logicalSize)
	if ndb == 0 {
		return 0
	}
	k := int64(g.KeysPerSegment())
	return (ndb + k - 1) / k
}

// PhysicalSize implements the paper's Equation (6):
// n' = (NDB + NMB) · BlockSize.
func (g Geometry) PhysicalSize(logicalSize int64) int64 {
	return (g.NumDataBlocks(logicalSize) + g.NumMetaBlocks(logicalSize)) * int64(g.BlockSize)
}

// Overhead implements the paper's Equation (7): n' − n.
func (g Geometry) Overhead(logicalSize int64) int64 {
	return g.PhysicalSize(logicalSize) - logicalSize
}

// MinOverheadRatio implements the paper's Equation (8): the space
// overhead ratio when the file exactly fills its segments,
// 1/NumKeysMB.
func (g Geometry) MinOverheadRatio() float64 {
	return 1.0 / float64(g.KeysPerSegment())
}

// DataBlockFraction returns the fraction of blocks in an encrypted
// file that hold data (rather than metadata) for a file of the given
// logical size. This is the quantity plotted in Figure 11.
func (g Geometry) DataBlockFraction(logicalSize int64) float64 {
	ndb := g.NumDataBlocks(logicalSize)
	nmb := g.NumMetaBlocks(logicalSize)
	if ndb+nmb == 0 {
		return 1
	}
	return float64(ndb) / float64(ndb+nmb)
}

// SegmentOfBlock returns the segment index that contains logical data
// block dbi.
func (g Geometry) SegmentOfBlock(dbi int64) int64 {
	return dbi / int64(g.KeysPerSegment())
}

// SlotOfBlock returns the stable slot index (within the segment's
// metadata block) that stores the key for logical data block dbi.
func (g Geometry) SlotOfBlock(dbi int64) int {
	return int(dbi % int64(g.KeysPerSegment()))
}

// MetaBlockOffset returns the byte offset within the backing file of
// the metadata block for segment seg.
func (g Geometry) MetaBlockOffset(seg int64) int64 {
	return seg * g.SegmentPhysBytes()
}

// DataBlockOffset returns the byte offset within the backing file of
// logical data block dbi.
func (g Geometry) DataBlockOffset(dbi int64) int64 {
	seg := g.SegmentOfBlock(dbi)
	slot := int64(g.SlotOfBlock(dbi))
	return g.MetaBlockOffset(seg) + int64(g.BlockSize)*(1+slot)
}

// LogicalToPhysical maps a logical byte offset to its physical byte
// offset in the backing file.
func (g Geometry) LogicalToPhysical(off int64) int64 {
	bs := int64(g.BlockSize)
	dbi := off / bs
	return g.DataBlockOffset(dbi) + off%bs
}

// PhysicalToLogical inverts LogicalToPhysical. It returns the logical
// offset and true for data bytes, or (segment index, false) when the
// physical offset falls inside a metadata block.
func (g Geometry) PhysicalToLogical(phys int64) (int64, bool) {
	bs := int64(g.BlockSize)
	segBytes := g.SegmentPhysBytes()
	seg := phys / segBytes
	in := phys % segBytes
	if in < bs {
		return seg, false // inside the metadata block
	}
	blockInSeg := in/bs - 1
	dbi := seg*int64(g.KeysPerSegment()) + blockInSeg
	return dbi*bs + in%bs, true
}

// MetaBlock is the decoded (plaintext) form of one metadata block
// (Figure 3). Slots[0:K] are the stable per-data-block convergent
// keys; Slots[K:TotalSlots] are the transient slots holding previous
// keys during a multiphase commit.
type MetaBlock struct {
	// SegIndex is the segment this block describes; it is sealed into
	// the payload so a misdirected or swapped metadata block is
	// detected on read.
	SegIndex uint64
	// LogicalSize is the file's logical size in bytes. Only the final
	// segment's value is authoritative (paper §2.3); earlier segments
	// may hold stale sizes.
	LogicalSize uint64
	// Flags holds FlagMidUpdate and future bits.
	Flags uint32
	// NTransient is the number of valid transient (old) keys currently
	// stored in the reserved slots.
	NTransient uint32
	// Slots is the full key table, length TotalSlots.
	Slots []cryptoutil.Key

	geo Geometry
}

// NewMetaBlock returns an empty metadata block for segment seg under
// geometry g. Under the default geometry the block and its slot table
// are one allocation of exactly 4 KiB (defaultMeta).
func NewMetaBlock(g Geometry, seg uint64) *MetaBlock {
	if n := g.TotalSlots(); n == len(defaultMeta{}.slots) {
		d := &defaultMeta{}
		d.m = MetaBlock{SegIndex: seg, Slots: d.slots[:n:n], geo: g}
		return &d.m
	}
	return &MetaBlock{
		SegIndex: seg,
		Slots:    make([]cryptoutil.Key, g.TotalSlots()),
		geo:      g,
	}
}

// defaultMeta holds a MetaBlock of the default geometry and its slot
// table side by side: 64 + 126·32 bytes, one 4 KiB size class.
type defaultMeta struct {
	m     MetaBlock
	slots [DefaultBlockSize/SlotSize - 2]cryptoutil.Key
}

// Geometry returns the geometry the block was created or decoded with.
func (m *MetaBlock) Geometry() Geometry { return m.geo }

// StableKey returns the stable key in slot i (0 ≤ i < K).
func (m *MetaBlock) StableKey(i int) cryptoutil.Key { return m.Slots[i] }

// SetStableKey stores key into stable slot i.
func (m *MetaBlock) SetStableKey(i int, k cryptoutil.Key) {
	if i < 0 || i >= m.geo.KeysPerSegment() {
		panic(fmt.Sprintf("layout: stable slot %d out of range [0,%d)", i, m.geo.KeysPerSegment()))
	}
	m.Slots[i] = k
}

// TransientKey returns the transient (old) key in reserved slot r
// (0 ≤ r < Reserved).
func (m *MetaBlock) TransientKey(r int) cryptoutil.Key {
	return m.Slots[m.geo.KeysPerSegment()+r]
}

// SetTransientKey stores an old key into reserved slot r. In
// compressed mode only the first CompressedReserved reserved slots
// hold keys; the rest is the length table.
func (m *MetaBlock) SetTransientKey(r int, k cryptoutil.Key) {
	if r < 0 || r >= m.EffReserved() {
		panic(fmt.Sprintf("layout: transient slot %d out of range [0,%d)", r, m.EffReserved()))
	}
	m.Slots[m.geo.KeysPerSegment()+r] = k
}

// EffReserved returns the number of transient key slots usable by the
// commit protocol for this block: Reserved, or CompressedReserved
// when the segment is in compressed mode.
func (m *MetaBlock) EffReserved() int {
	if m.Compressed() {
		return m.geo.CompressedReserved()
	}
	return m.geo.Reserved
}

// ClearTransient zeroes the transient key slots and the count. In
// compressed mode the length table (which shares the reserved slot
// region) is preserved, except for the now-meaningless old-length
// bytes paired with the cleared transient keys.
func (m *MetaBlock) ClearTransient() {
	k := m.geo.KeysPerSegment()
	end := k + m.EffReserved()
	for i := k; i < end; i++ {
		m.Slots[i].Zero()
	}
	if m.Compressed() {
		for r := 0; r < m.EffReserved(); r++ {
			m.SetOldLen(r, 0)
		}
	}
	m.NTransient = 0
}

// Compressed reports whether the segment's data blocks carry
// length-prefixed compressed payloads.
func (m *MetaBlock) Compressed() bool { return m.Flags&FlagCompressed != 0 }

// InitCompressed switches a raw segment into compressed mode: it sets
// FlagCompressed, zeroes the length-table region, and marks every
// currently keyed stable slot as stored raw (a full block — the bytes
// already on disk stay valid). Call only on a segment with no
// transient keys outstanding (i.e. not mid-update).
func (m *MetaBlock) InitCompressed() {
	if m.Compressed() {
		return
	}
	g := m.geo
	m.Flags |= FlagCompressed
	base := g.TotalSlots() - g.LenSlots()
	for i := base; i < len(m.Slots); i++ {
		m.Slots[i].Zero()
	}
	units := uint8(g.UnitsPerBlock())
	var zero cryptoutil.Key
	for i := 0; i < g.KeysPerSegment(); i++ {
		if m.Slots[i] != zero {
			m.SetStoredLen(i, units)
		}
	}
}

// lenByteIndex maps a length-table byte index to its slot/offset. The
// table is the flat byte view of the last LenSlots slots: bytes
// [0:K] are stable-slot stored lengths, bytes [K:K+CompressedReserved]
// are the old lengths paired with the transient key slots.
func (m *MetaBlock) lenByte(idx int) *byte {
	g := m.geo
	base := g.TotalSlots() - g.LenSlots()
	return &m.Slots[base+idx/SlotSize][idx%SlotSize]
}

// StoredLen returns the stored length of stable slot i in LenUnit
// granules: 0 for a hole, UnitsPerBlock for a raw full block, and
// anything in between for a compressed prefix. Only meaningful when
// Compressed().
func (m *MetaBlock) StoredLen(i int) int { return int(*m.lenByte(i)) }

// SetStoredLen records the stored length (in LenUnit granules) of
// stable slot i.
func (m *MetaBlock) SetStoredLen(i int, units uint8) {
	if i < 0 || i >= m.geo.KeysPerSegment() {
		panic(fmt.Sprintf("layout: stable slot %d out of range [0,%d)", i, m.geo.KeysPerSegment()))
	}
	*m.lenByte(i) = units
}

// OldLen returns the stored length paired with transient key slot r:
// the length the block's PREVIOUS ciphertext occupies on disk, needed
// to decode it during recovery.
func (m *MetaBlock) OldLen(r int) int {
	return int(*m.lenByte(m.geo.KeysPerSegment() + r))
}

// SetOldLen records the previous stored length paired with transient
// key slot r.
func (m *MetaBlock) SetOldLen(r int, units uint8) {
	if r < 0 || r >= m.geo.CompressedReserved() {
		panic(fmt.Sprintf("layout: transient length slot %d out of range [0,%d)", r, m.geo.CompressedReserved()))
	}
	*m.lenByte(m.geo.KeysPerSegment() + r) = units
}

// MidUpdate reports whether the segment is marked as being inside a
// multiphase commit.
func (m *MetaBlock) MidUpdate() bool { return m.Flags&FlagMidUpdate != 0 }

// SetMidUpdate sets or clears the midupdate flag.
func (m *MetaBlock) SetMidUpdate(on bool) {
	if on {
		m.Flags |= FlagMidUpdate
	} else {
		m.Flags &^= FlagMidUpdate
	}
}

// Clone returns a deep copy of the metadata block.
func (m *MetaBlock) Clone() *MetaBlock {
	c := *m
	c.Slots = append([]cryptoutil.Key(nil), m.Slots...)
	return &c
}

// CloneInto makes dst a deep copy of m, reusing dst's slot table when
// it is large enough, and returns it; a nil dst gets a fresh Clone.
func (m *MetaBlock) CloneInto(dst *MetaBlock) *MetaBlock {
	if dst == nil {
		return m.Clone()
	}
	slots := dst.Slots
	*dst = *m
	dst.Slots = append(slots[:0], m.Slots...)
	return dst
}

// blockSizeLog2 returns log2(BlockSize) for the sealed header; block
// sizes are required to be powers-of-two multiples of 64 in practice,
// but we store the exact size instead when it is not a power of two.
func blockSizeLog2(bs int) (uint8, bool) {
	for i := uint8(7); i < 32; i++ {
		if 1<<i == bs {
			return i, true
		}
	}
	return 0, false
}

// Encode seals the metadata block with s, the sealer of the outer key,
// and writes the full on-disk block (nonce ‖ tag ‖ ciphertext) into
// dst, which must be exactly BlockSize bytes. It encodes the payload
// straight into dst and seals it there, so it allocates nothing: the
// payload sits at dst[16:BlockSize-16] and GCM appends the tag at the
// end of the block, after which the ciphertext moves up over the tag
// and the tag into its place in the clear header.
func (m *MetaBlock) Encode(dst []byte, s *cryptoutil.MetaSealer) error {
	g := m.geo
	if len(dst) != g.BlockSize {
		return fmt.Errorf("%w: dst is %d bytes, want %d", ErrBadBlock, len(dst), g.BlockSize)
	}
	if len(m.Slots) != g.TotalSlots() {
		return fmt.Errorf("%w: slot table has %d entries, want %d", ErrBadBlock, len(m.Slots), g.TotalSlots())
	}
	if g.Reserved > 255 {
		return fmt.Errorf("%w: reserved slots %d exceed encodable range", ErrBadGeometry, g.Reserved)
	}
	const at = clearHeaderSize - cryptoutil.GCMTagSize
	payload := dst[at : len(dst)-cryptoutil.GCMTagSize]
	// The slot table fills the payload after the header, so only the
	// header needs clearing.
	table := payload[sealedHeaderSize:]
	clear(payload[:sealedHeaderSize])
	binary.LittleEndian.PutUint32(payload[0:4], Magic)
	binary.LittleEndian.PutUint16(payload[4:6], Version)
	if l2, ok := blockSizeLog2(g.BlockSize); ok {
		payload[6] = l2
	}
	payload[7] = uint8(g.Reserved) // fits: Reserved < TotalSlots <= 255 for bs <= 8192
	binary.LittleEndian.PutUint64(payload[8:16], m.SegIndex)
	binary.LittleEndian.PutUint64(payload[16:24], m.LogicalSize)
	binary.LittleEndian.PutUint32(payload[24:28], m.Flags)
	binary.LittleEndian.PutUint32(payload[28:32], m.NTransient)
	for i, k := range m.Slots {
		*(*cryptoutil.Key)(table[i*SlotSize:]) = k
	}

	nonce, err := cryptoutil.NewNonce()
	if err != nil {
		return err
	}
	clear(dst[:at])
	copy(dst, nonce[:])
	s.Seal(dst[at:], dst[:cryptoutil.GCMNonceSize])
	var tag [cryptoutil.GCMTagSize]byte
	copy(tag[:], dst[len(dst)-cryptoutil.GCMTagSize:])
	copy(dst[clearHeaderSize:], dst[at:len(dst)-cryptoutil.GCMTagSize])
	copy(dst[at:clearHeaderSize], tag[:])
	return nil
}

// DecodeMetaBlock authenticates with s, the sealer of the outer key, and
// decodes an on-disk metadata block. It decodes in src: the tag moves
// behind the ciphertext, as GCM wants it, and the payload is decrypted
// there, so src no longer holds the block afterwards — whether or not
// it decodes — and the only allocation is the MetaBlock. wantSeg is
// the segment index the caller expects; a sealed block that
// authenticates but carries a different segment index yields
// ErrWrongSeg (a misplaced block, e.g. a storage-layer swap).
func DecodeMetaBlock(g Geometry, src []byte, s *cryptoutil.MetaSealer, wantSeg uint64) (*MetaBlock, error) {
	if len(src) != g.BlockSize {
		return nil, fmt.Errorf("%w: block is %d bytes, want %d", ErrBadBlock, len(src), g.BlockSize)
	}
	// On disk the tag precedes the ciphertext: rotate it behind, the
	// inverse of Encode's last step. The nonce stays where it is.
	const at = clearHeaderSize - cryptoutil.GCMTagSize
	var tag [cryptoutil.GCMTagSize]byte
	copy(tag[:], src[at:clearHeaderSize])
	copy(src[at:], src[clearHeaderSize:])
	copy(src[len(src)-cryptoutil.GCMTagSize:], tag[:])
	sealed := src[at:]
	if err := s.Open(sealed, src[:cryptoutil.GCMNonceSize]); err != nil {
		return nil, err
	}
	payload := sealed[:len(sealed)-cryptoutil.GCMTagSize]
	if got := binary.LittleEndian.Uint32(payload[0:4]); got != Magic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadMagic, got)
	}
	if v := binary.LittleEndian.Uint16(payload[4:6]); v != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	if r := int(payload[7]); r != g.Reserved {
		return nil, fmt.Errorf("%w: block written with R=%d, geometry has R=%d", ErrBadBlock, r, g.Reserved)
	}
	m := NewMetaBlock(g, 0)
	m.SegIndex = binary.LittleEndian.Uint64(payload[8:16])
	m.LogicalSize = binary.LittleEndian.Uint64(payload[16:24])
	m.Flags = binary.LittleEndian.Uint32(payload[24:28])
	m.NTransient = binary.LittleEndian.Uint32(payload[28:32])
	if m.NTransient > uint32(g.Reserved) {
		return nil, fmt.Errorf("%w: nTransient %d exceeds R=%d", ErrBadBlock, m.NTransient, g.Reserved)
	}
	table := payload[sealedHeaderSize:]
	for i := range m.Slots {
		m.Slots[i] = *(*cryptoutil.Key)(table[i*SlotSize:])
	}
	if m.Compressed() {
		if err := g.CompressionGeometryOK(); err != nil {
			return nil, fmt.Errorf("%w: compressed segment under incompatible geometry: %v", ErrBadBlock, err)
		}
		if m.NTransient > uint32(g.CompressedReserved()) {
			return nil, fmt.Errorf("%w: nTransient %d exceeds compressed-mode R=%d", ErrBadBlock, m.NTransient, g.CompressedReserved())
		}
		units := g.UnitsPerBlock()
		for i := 0; i < g.KeysPerSegment(); i++ {
			if m.StoredLen(i) > units {
				return nil, fmt.Errorf("%w: stable slot %d stored length %d exceeds %d units", ErrBadBlock, i, m.StoredLen(i), units)
			}
		}
		for r := 0; r < g.CompressedReserved(); r++ {
			if m.OldLen(r) > units {
				return nil, fmt.Errorf("%w: transient slot %d old length %d exceeds %d units", ErrBadBlock, r, m.OldLen(r), units)
			}
		}
	}
	if m.SegIndex != wantSeg {
		return m, fmt.Errorf("%w: sealed segment %d, expected %d", ErrWrongSeg, m.SegIndex, wantSeg)
	}
	return m, nil
}
