// Package shard stripes a flat backend.Store namespace across N
// independent backend.Store instances — the scaling layer this
// repository adds on top of the paper's shim design. The paper keeps
// the backing-store interface deliberately tiny (positional reads and
// writes on named flat files) precisely so storage behaviours compose;
// sharding is the next composition after the simulated-NFS, fault and
// name-encryption wrappers: once the engine commits in parallel
// (internal/core's worker pool), a single store is the throughput
// ceiling, and striping the encrypted backing files across several
// stores removes it.
//
// Placement lives in the internal/shard/layout subpackage: a
// consistent-hash ring with virtual nodes (layout.Ring) versioned by
// an epoch number (layout.Layout). Each shard contributes Vnodes
// points on a 64-bit hash circle and a key is owned by the first
// point at or clockwise of its hash. The map is O(log vnodes) per
// lookup, entirely off the data path (no placement I/O),
// deterministic across processes, and stable under growth: adding a
// shard moves only the keys the new shard's points capture (≈ K/N of
// them) and never moves a key between two old shards.
//
// Small files place whole-file: every byte of the backing file lives
// on the shard that owns the file name. Large files additionally
// stripe: with Config.StripeBytes > 0, stripe s of a file (its bytes
// [s·stripe, (s+1)·stripe)) lives on the shard owning the derived key
// "name\x00s", so one hot file fans its segment commits across many
// stores. Stripes keep their global offsets inside each shard's
// backing file (a sparse layout), which preserves the engine's
// zero-fill hole semantics.
//
// Store implements backend.Store, so a sharded deployment is invisible
// to internal/core except where it helps: core reads a sharded store's
// stripe unit and splits the extents it writes and reads at stripe
// edges; which shards own them, and every per-shard count, stay here.
// Topology change has
// one engine (BeginMigration/RunMover; Rebalance is begin, run, wait):
// the store serves two placement epochs at once — writes route by the
// new ring and mirror to the old owner, reads route to the new owner
// once the mover has confirmed the key and fall back to the old owner
// until then — while a background mover copies only the keys whose
// owner changed and then atomically commits the epoch bump (see
// migrate.go and the layout package's Record).
package shard

import "lamassu/internal/shard/layout"

// DefaultVnodes is the virtual-node count per shard; see
// layout.DefaultVnodes for the sizing rationale.
const DefaultVnodes = layout.DefaultVnodes

// Ring is the consistent-hash placement map, now defined in the
// layout subpackage (the alias keeps the PR 2 surface intact).
type Ring = layout.Ring

// NewRing builds the placement map for the given shard and
// virtual-node counts. vnodes < 1 selects DefaultVnodes.
func NewRing(shards, vnodes int) (*Ring, error) { return layout.NewRing(shards, vnodes) }

// stripeKey derives the placement key of stripe idx of name; see
// layout.StripeKey.
func stripeKey(name string, idx int64) string { return layout.StripeKey(name, idx) }
