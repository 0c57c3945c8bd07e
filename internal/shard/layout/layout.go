// Package layout is the placement subsystem of the shard layer: ring
// construction, key→shard routing and the epoch versioning that makes
// topology change an online operation.
//
// A Layout is one immutable placement epoch: a consistent-hash Ring
// over N shards plus the stripe unit, stamped with a monotonically
// increasing epoch number. The ring's hash construction is on-disk
// format (TestRingGoldenPlacement in internal/shard pins it): the
// epoch versions WHICH ring a deployment routes by, never how a given
// ring hashes. A migrating mount holds two Layouts — the previous and
// the current epoch — and routes reads through both (dual-ring reads)
// until the mover confirms every relocated key; see internal/shard's
// migration machinery.
//
// The current epoch is persisted on the shards themselves as a small
// golden-pinned Record (record.go), so a reopened mount can discover
// the deployment's epoch — and an interrupted migration — without any
// out-of-band state.
package layout

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per shard. 64 points per
// shard keeps the ring small (a few KiB even at 32 shards) while
// holding the load imbalance across shards to roughly ±25 % of fair
// share (measured at 8 shards); provision hot-shard capacity with
// that margin, or raise the vnode count to tighten it.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash placement map: Shards() shards,
// each contributing Vnodes() points on a 64-bit circle. Construction
// is deterministic — two rings built with the same (shards, vnodes)
// anywhere, in any process, place every key identically.
type Ring struct {
	shards int
	vnodes int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the placement map for the given shard and
// virtual-node counts. vnodes < 1 selects DefaultVnodes.
func NewRing(shards, vnodes int) (*Ring, error) {
	if shards < 1 {
		return nil, errors.New("shard: ring needs at least one shard")
	}
	if vnodes < 1 {
		vnodes = DefaultVnodes
	}
	r := &Ring{
		shards: shards,
		vnodes: vnodes,
		points: make([]ringPoint, 0, shards*vnodes),
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := hashKey(fmt.Sprintf("shard-%d-vnode-%d", s, v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Colliding points order by shard so ties break identically
		// everywhere.
		return a.shard < b.shard
	})
	return r, nil
}

// Shards returns the number of shards on the ring.
func (r *Ring) Shards() int { return r.shards }

// Vnodes returns the virtual-node count per shard.
func (r *Ring) Vnodes() int { return r.vnodes }

// Lookup returns the shard owning key: the shard of the first ring
// point at or clockwise of the key's hash.
func (r *Ring) Lookup(key string) int {
	if r.shards == 1 {
		return 0
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard
}

// LookupN returns the first n DISTINCT shards at or clockwise of the
// key's hash — the replica set of the key. LookupN(key, 1)[0] always
// equals Lookup(key), so single-copy placement is the R=1 special
// case of the same walk, and raising R never moves a key's primary.
// n is clamped to the shard count (a ring cannot hold more distinct
// copies than it has shards).
func (r *Ring) LookupN(key string, n int) []int {
	if n > r.shards {
		n = r.shards
	}
	if n < 1 {
		n = 1
	}
	if r.shards == 1 {
		return []int{0}
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	owners := make([]int, 0, n)
	for scanned := 0; scanned < len(r.points) && len(owners) < n; scanned++ {
		p := r.points[(i+scanned)%len(r.points)]
		if !slices.Contains(owners, p.shard) {
			owners = append(owners, p.shard)
		}
	}
	return owners
}

// hashKey maps a key onto the circle: FNV-1a for stable, seedless
// absorption (placement must agree between the process that wrote a
// file and every later process that reads it) followed by a
// splitmix64 finalizer — raw FNV of near-identical keys ("shard-0-
// vnode-1", "shard-0-vnode-2", …) clusters badly on the circle, and
// the finalizer's avalanche spreads the points to the ~±25 % load
// imbalance of an ideal ring at the default vnode count.
func hashKey(key string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer (public-domain constants).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Layout is one placement epoch: an immutable ring plus the stripe
// unit, stamped with the epoch number. Two Layouts with the same
// (shards, vnodes, stripe) place every key identically regardless of
// epoch — the epoch orders topologies in time, it never perturbs the
// hash.
type Layout struct {
	epoch    uint64
	ring     *Ring
	stripe   int64
	replicas int // distinct copies per key; 0 and 1 both mean single-copy
}

// New builds the Layout for one epoch. vnodes < 1 selects
// DefaultVnodes; stripe <= 0 selects whole-file placement. The layout
// places a single copy of every key; derive a replicated layout with
// WithReplicas.
func New(epoch uint64, shards, vnodes int, stripe int64) (*Layout, error) {
	ring, err := NewRing(shards, vnodes)
	if err != nil {
		return nil, err
	}
	if stripe < 0 {
		stripe = 0
	}
	return &Layout{epoch: epoch, ring: ring, stripe: stripe}, nil
}

// Epoch returns the layout's epoch number.
func (l *Layout) Epoch() uint64 { return l.epoch }

// Shards returns the number of shards.
func (l *Layout) Shards() int { return l.ring.shards }

// Vnodes returns the virtual-node count per shard.
func (l *Layout) Vnodes() int { return l.ring.vnodes }

// StripeBytes returns the stripe unit (0 = whole-file placement).
func (l *Layout) StripeBytes() int64 { return l.stripe }

// Ring returns the underlying placement ring.
func (l *Layout) Ring() *Ring { return l.ring }

// WithEpoch returns a Layout identical to l but stamped with epoch —
// the cheap path for adopting a persisted epoch number at mount time
// (the ring is shared, not rebuilt).
func (l *Layout) WithEpoch(epoch uint64) *Layout {
	if epoch == l.epoch {
		return l
	}
	return &Layout{epoch: epoch, ring: l.ring, stripe: l.stripe, replicas: l.replicas}
}

// WithReplicas returns a Layout identical to l but placing r distinct
// copies of every key (the ring is shared, not rebuilt). r is clamped
// to [1, shards]; WithReplicas(1) is single-copy placement.
func (l *Layout) WithReplicas(r int) *Layout {
	if r > l.ring.shards {
		r = l.ring.shards
	}
	if r < 1 {
		r = 1
	}
	if r == l.Replicas() {
		return l
	}
	return &Layout{epoch: l.epoch, ring: l.ring, stripe: l.stripe, replicas: r}
}

// Replicas returns the number of distinct copies the layout places
// per key; always at least 1.
func (l *Layout) Replicas() int {
	if l.replicas < 1 {
		return 1
	}
	return l.replicas
}

// KeyOf returns the placement key of byte off of the named file: the
// name itself under whole-file placement, the derived stripe key
// otherwise. Two layouts over the same stripe unit derive identical
// keys, which is what lets a migration compare owners key by key.
func (l *Layout) KeyOf(name string, off int64) string {
	if l.stripe <= 0 {
		return name
	}
	return StripeKey(name, off/l.stripe)
}

// Owner returns the shard owning a placement key previously derived
// with KeyOf (or StripeKey). Under replication it is the PRIMARY —
// Owners(key)[0].
func (l *Layout) Owner(key string) int { return l.ring.Lookup(key) }

// Owners returns the replica set of a placement key: the layout's R
// distinct shards walking clockwise from the key's hash, primary
// first. Owners(key)[0] == Owner(key) for every layout, so the R=1
// placement (and its golden) is unchanged by replication.
func (l *Layout) Owners(key string) []int {
	return l.ring.LookupN(key, l.Replicas())
}

// SamePlacement reports whether l and o route every key identically
// (same shard count, vnodes, stripe unit and replication factor) —
// epochs are ignored.
func (l *Layout) SamePlacement(o *Layout) bool {
	return l.ring.shards == o.ring.shards && l.ring.vnodes == o.ring.vnodes &&
		l.stripe == o.stripe && l.Replicas() == o.Replicas()
}

// StripeKey derives the placement key of stripe idx of name. The NUL
// separator cannot occur in OS file names, so derived keys never
// collide with whole-file keys of other files.
func StripeKey(name string, idx int64) string {
	return name + "\x00" + strconv.FormatInt(idx, 10)
}
