package layout

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"lamassu/internal/backend"
)

// RecordName is the backing-store file that holds a deployment's
// layout record. The name — and every name derived from it, like the
// atomic-replace temporary — is reserved: the shard layer hides them
// from List and rejects user opens. (Under encrypted names the record
// is stored — like every other backing file — under its encrypted
// name.)
const RecordName = ".lamassu-layout"

// recordTmpName is the staging file WriteRecord renames over
// RecordName, so a crash mid-update can never leave a torn record.
const recordTmpName = RecordName + ".tmp"

// IsReserved reports whether name belongs to the layout subsystem and
// must stay invisible to (and unwritable by) everything above it.
func IsReserved(name string) bool {
	return name == RecordName || strings.HasPrefix(name, RecordName+".")
}

// State is the phase of the epoch state machine a record captures —
// the one machine every relocation walks, under a live mount
// (StartRebalance) or without one (RebalanceShards):
//
//	stable ──BeginMigration──▶ migrating ──copies done──▶ reaping ──stale copies removed──▶ stable
//
// A migrating record carries BOTH placements (current = the epoch
// being served, target parameters in Shards/Vnodes with the previous
// epoch's in PrevShards/PrevVnodes); a reaping record is the new
// epoch with stale-copy removal still pending.
type State int

const (
	// StateStable is a settled deployment: one ring, no migration.
	StateStable State = iota
	// StateMigrating is a deployment mid-rebalance: writes route by
	// the new ring (mirrored to the old owner), reads fall back to the
	// old ring until the mover confirms each key.
	StateMigrating
	// StateReaping is a deployment whose epoch bump committed but whose
	// stale old-owner copies have not all been removed yet.
	StateReaping
)

// String returns the record-encoding token for the state.
func (s State) String() string {
	switch s {
	case StateStable:
		return "stable"
	case StateMigrating:
		return "migrating"
	case StateReaping:
		return "reaping"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// rank orders records written by one deployment over time, for the
// resolver that reads possibly-divergent per-shard copies after a
// crash. A migrating record already carries the TARGET epoch, so the
// full lifecycle sorts as
// stable(E) < migrating(E+1) < reaping(E+1) < stable(E+1).
func (s State) rank() int {
	switch s {
	case StateMigrating:
		return 1
	case StateReaping:
		return 2
	case StateStable:
		return 3
	default:
		return 0
	}
}

// Record is the persisted form of a deployment's placement epoch: the
// parameters every process must agree on (shard count, vnodes, stripe
// unit), the epoch number, and — during a migration — the previous
// epoch's parameters so a reopened mount can rebuild both rings.
//
// The encoding is golden-pinned (TestRecordGolden): it is on-disk
// format, shared by every process that ever opens the deployment.
type Record struct {
	// Epoch is the placement epoch the record describes. While
	// migrating it is the epoch being MIGRATED TO (PrevShards/PrevVnodes
	// describe epoch Epoch-1, which reads still fall back to).
	Epoch uint64
	// State is the deployment's phase.
	State State
	// Shards / Vnodes / StripeBytes are the placement parameters of
	// epoch Epoch.
	Shards      int
	Vnodes      int
	StripeBytes int64
	// PrevShards / PrevVnodes are the previous epoch's parameters; set
	// only while State is StateMigrating or StateReaping.
	PrevShards int
	PrevVnodes int
	// Replicas is the number of distinct copies the deployment places
	// per key. 0 and 1 both mean single-copy. A record with Replicas
	// >= 2 encodes as format v2; single-copy records stay byte-for-byte
	// v1, so replication never perturbs an existing deployment's
	// on-disk record.
	Replicas int
}

// magic is the first line of a single-copy record (format version v1).
// magicV2 heads records that carry a replication factor; a v1 reader
// rejects them outright (bad magic) rather than silently serving an
// R-way deployment with single-copy semantics.
const (
	magic   = "lamassu-layout v1"
	magicV2 = "lamassu-layout v2"
)

// ReplicaCount returns the record's replication factor, normalizing
// the v1 zero value to 1.
func (r Record) ReplicaCount() int {
	if r.Replicas < 1 {
		return 1
	}
	return r.Replicas
}

// Encode renders the record in its canonical, golden-pinned form:
// exactly the v1 bytes when single-copy, v2 (with a replicas field)
// when the deployment places two or more copies per key.
func (r Record) Encode() []byte {
	var b strings.Builder
	if r.Replicas >= 2 {
		fmt.Fprintf(&b, "%s\n", magicV2)
	} else {
		fmt.Fprintf(&b, "%s\n", magic)
	}
	fmt.Fprintf(&b, "epoch %d\n", r.Epoch)
	fmt.Fprintf(&b, "state %s\n", r.State)
	fmt.Fprintf(&b, "shards %d\n", r.Shards)
	fmt.Fprintf(&b, "vnodes %d\n", r.Vnodes)
	fmt.Fprintf(&b, "stripe %d\n", r.StripeBytes)
	if r.Replicas >= 2 {
		fmt.Fprintf(&b, "replicas %d\n", r.Replicas)
	}
	if r.State != StateStable {
		fmt.Fprintf(&b, "prev-shards %d\n", r.PrevShards)
		fmt.Fprintf(&b, "prev-vnodes %d\n", r.PrevVnodes)
	}
	return []byte(b.String())
}

// DecodeRecord parses an encoded record, rejecting unknown versions,
// malformed fields and values out of range: every record it accepts
// re-encodes to a record that decodes to itself. Both format versions
// decode: v1 records leave Replicas at 0 (single-copy — use
// ReplicaCount for the normalized factor), v2 records must carry
// 2 <= replicas <= shards.
func DecodeRecord(data []byte) (Record, error) {
	var r Record
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	v2 := len(lines) > 0 && lines[0] == magicV2
	if len(lines) == 0 || (lines[0] != magic && !v2) {
		return r, fmt.Errorf("shard: layout record: bad magic (want %q or %q)", magic, magicV2)
	}
	seen := make(map[string]bool, len(lines))
	for _, line := range lines[1:] {
		field, val, ok := strings.Cut(line, " ")
		if !ok {
			return r, fmt.Errorf("shard: layout record: malformed line %q", line)
		}
		if seen[field] {
			return r, fmt.Errorf("shard: layout record: duplicate field %q", field)
		}
		seen[field] = true
		var err error
		switch field {
		case "epoch":
			r.Epoch, err = strconv.ParseUint(val, 10, 64)
		case "state":
			switch val {
			case "stable":
				r.State = StateStable
			case "migrating":
				r.State = StateMigrating
			case "reaping":
				r.State = StateReaping
			default:
				err = fmt.Errorf("unknown state %q", val)
			}
		case "shards":
			r.Shards, err = strconv.Atoi(val)
		case "vnodes":
			r.Vnodes, err = strconv.Atoi(val)
		case "stripe":
			r.StripeBytes, err = strconv.ParseInt(val, 10, 64)
		case "replicas":
			if !v2 {
				// v1 never wrote this field; treat it like any other
				// unknown v1 field so a hand-edited hybrid is rejected.
				err = fmt.Errorf("unknown field %q", field)
				break
			}
			r.Replicas, err = strconv.Atoi(val)
		case "prev-shards":
			r.PrevShards, err = strconv.Atoi(val)
		case "prev-vnodes":
			r.PrevVnodes, err = strconv.Atoi(val)
		default:
			// Unknown fields are errors, not skips: a v1 reader must not
			// half-understand a future record and route by the wrong ring.
			err = fmt.Errorf("unknown field %q", field)
		}
		if err != nil {
			return r, fmt.Errorf("shard: layout record: field %q: %w", field, err)
		}
	}
	if r.Shards < 1 {
		return r, errors.New("shard: layout record: missing or invalid shards")
	}
	if r.Vnodes < 0 || r.StripeBytes < 0 || r.PrevVnodes < 0 {
		return r, errors.New("shard: layout record: negative vnodes or stripe")
	}
	if r.State != StateStable && r.PrevShards < 1 {
		return r, fmt.Errorf("shard: layout record: state %s without prev-shards", r.State)
	}
	if r.State == StateStable && (seen["prev-shards"] || seen["prev-vnodes"]) {
		// Encode never writes a previous epoch into a stable record, so
		// one that carries it would not round-trip.
		return r, errors.New("shard: layout record: stable record with a previous epoch")
	}
	if v2 && r.Replicas < 2 {
		// A v2 record exists only to carry a replication factor; one
		// without it (or with a single-copy factor) is malformed, not a
		// quiet R=1 — Encode would have produced v1.
		return r, errors.New("shard: layout record: v2 record without replicas >= 2")
	}
	if r.Replicas > r.Shards {
		return r, fmt.Errorf("shard: layout record: %d replicas over %d shards", r.Replicas, r.Shards)
	}
	return r, nil
}

// Newer reports whether r supersedes o in the epoch state machine.
// After a crash mid-record-fanout different shards may hold records
// from adjacent phases; the most advanced one is authoritative,
// because every phase transition finishes its data work BEFORE
// writing the next record anywhere.
func (r Record) Newer(o Record) bool {
	if r.Epoch != o.Epoch {
		return r.Epoch > o.Epoch
	}
	return r.State.rank() > o.State.rank()
}

// ReadRecord reads and decodes a store's layout record. The second
// return is false (with a nil error) when the store has none — the
// implicit epoch-0 state of every deployment that never rebalanced
// online.
func ReadRecord(ctx context.Context, s backend.Store) (Record, bool, error) {
	f, err := backend.OpenCtx(ctx, s, RecordName, backend.OpenRead)
	if errors.Is(err, backend.ErrNotExist) {
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return Record{}, false, err
	}
	buf := make([]byte, size)
	if size > 0 {
		if err := backend.ReadFullCtx(ctx, f, buf, 0); err != nil {
			return Record{}, false, err
		}
	}
	rec, err := DecodeRecord(buf)
	if err != nil {
		return Record{}, false, err
	}
	return rec, true, nil
}

// WriteRecord encodes and durably writes a store's layout record:
// the bytes land in a staging file (truncate + write + sync) that is
// then atomically renamed over the record, so a crash at any point
// leaves either the old record or the new one — never a torn mix the
// reopen path would refuse to decode. A stale staging file from an
// earlier crash is simply overwritten.
func WriteRecord(ctx context.Context, s backend.Store, r Record) error {
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	if err := backend.WriteFile(s, recordTmpName, r.Encode()); err != nil {
		return err
	}
	return s.Rename(recordTmpName, RecordName)
}

// RemoveRecord deletes a store's layout record and any staging
// leftover (used when a shard is retired); a store without one is not
// an error.
func RemoveRecord(ctx context.Context, s backend.Store) error {
	if err := backend.RemoveCtx(ctx, s, recordTmpName); err != nil && !errors.Is(err, backend.ErrNotExist) {
		return err
	}
	err := backend.RemoveCtx(ctx, s, RecordName)
	if errors.Is(err, backend.ErrNotExist) {
		return nil
	}
	return err
}
