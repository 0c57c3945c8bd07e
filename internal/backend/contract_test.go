// Backend-contract conformance: one table of invariants, run over
// every Store implementation in the repository. The suite pins the
// parts of the contract the engine and the retry layer lean on:
//
//   - ErrNotExist mapping: opening/stating/removing a missing name
//     reports backend.ErrNotExist through errors.Is, at any wrapping
//     depth.
//   - Taxonomy cleanliness: those errors classify FATAL, and a
//     round-tripped payload works, so retryable marks never appear
//     spontaneously.
//   - Classification preservation: a Retryable-marked error produced
//     by a leaf store keeps its mark through every wrapper's own
//     error wrapping (shard, nfssim, faultfs and its scheduler,
//     namecrypt, AttemptStore).
//
// The file lives in package backend_test so it can import the wrapper
// packages without an import cycle.
package backend_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/faultfs"
	"lamassu/internal/namecrypt"
	"lamassu/internal/nfssim"
	"lamassu/internal/shard"
	"lamassu/internal/simclock"
)

func noSleep(ctx context.Context, d time.Duration) error { return backend.CtxErr(ctx) }

// impls enumerates every Store implementation under test. wrap builds
// the store over a leaf (nil leaf means "make your own memory leaf");
// wrapLeaf builds the same wrapper shape around an arbitrary leaf for
// the classification-preservation sweep (nil for leaf stores that
// wrap nothing).
var impls = []struct {
	name     string
	mk       func(t *testing.T) backend.Store
	wrapLeaf func(t *testing.T, leaf backend.Store) backend.Store
}{
	{
		name: "memfs",
		mk:   func(t *testing.T) backend.Store { return backend.NewMemStore() },
	},
	{
		name: "osfs",
		mk: func(t *testing.T) backend.Store {
			s, err := backend.NewOSStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	},
	{
		name: "shard",
		mk: func(t *testing.T) backend.Store {
			return mkShard(t, backend.NewMemStore(), backend.NewMemStore())
		},
		wrapLeaf: func(t *testing.T, leaf backend.Store) backend.Store {
			return mkShard(t, leaf, leaf)
		},
	},
	{
		// Every factor runs one owner-group data path; these rows hold
		// it to the contract with groups of two (fan-out writes,
		// failover reads), over both leaf kinds.
		name: "shard-r2-mem",
		mk: func(t *testing.T) backend.Store {
			return mkShardR(t, 2, backend.NewMemStore(), backend.NewMemStore(), backend.NewMemStore())
		},
	},
	{
		name: "shard-r2-os",
		mk: func(t *testing.T) backend.Store {
			leaves := make([]backend.Store, 3)
			for i := range leaves {
				s, err := backend.NewOSStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				leaves[i] = s
			}
			return mkShardR(t, 2, leaves...)
		},
	},
	{
		name: "nfssim",
		mk: func(t *testing.T) backend.Store {
			return nfssim.New(backend.NewMemStore(), nfssim.Params{}, simclock.NewVirtual())
		},
		wrapLeaf: func(t *testing.T, leaf backend.Store) backend.Store {
			return nfssim.New(leaf, nfssim.Params{}, simclock.NewVirtual())
		},
	},
	{
		name: "faultfs",
		mk:   func(t *testing.T) backend.Store { return faultfs.New(backend.NewMemStore()) },
		wrapLeaf: func(t *testing.T, leaf backend.Store) backend.Store {
			return faultfs.New(leaf)
		},
	},
	{
		// The interleaving tests' store: a pass-through policy must be
		// invisible.
		name: "scheduler",
		mk: func(t *testing.T) backend.Store {
			return faultfs.NewScheduler(faultfs.Policy{}).Leaf(0, backend.NewMemStore())
		},
		wrapLeaf: func(t *testing.T, leaf backend.Store) backend.Store {
			return faultfs.NewScheduler(faultfs.Policy{}).Leaf(0, leaf)
		},
	},
	{
		name: "namecrypt",
		mk: func(t *testing.T) backend.Store {
			return namecrypt.New(backend.NewMemStore(), testNameKey())
		},
		wrapLeaf: func(t *testing.T, leaf backend.Store) backend.Store {
			return namecrypt.New(leaf, testNameKey())
		},
	},
	{
		name: "retry",
		mk: func(t *testing.T) backend.Store {
			return retryStore(backend.NewMemStore(), backend.RetryPolicy{})
		},
		wrapLeaf: func(t *testing.T, leaf backend.Store) backend.Store {
			return retryStore(leaf, backend.RetryPolicy{MaxAttempts: 2})
		},
	},
	{
		name: "objstore",
		mk: func(t *testing.T) backend.Store {
			return objstore.New(objstore.NewMemserver(objstore.ServerParams{}, simclock.NewVirtual()))
		},
	},
	{
		name: "objstore+retry",
		mk: func(t *testing.T) backend.Store {
			leaf := objstore.New(objstore.NewMemserver(objstore.ServerParams{}, simclock.NewVirtual()))
			return retryStore(leaf, backend.RetryPolicy{})
		},
	},
	{
		name: "objstore+shard",
		mk: func(t *testing.T) backend.Store {
			a := objstore.New(objstore.NewMemserver(objstore.ServerParams{}, simclock.NewVirtual()))
			b := objstore.New(objstore.NewMemserver(objstore.ServerParams{}, simclock.NewVirtual()))
			return mkShard(t, a, b)
		},
	},
	{
		name: "hedge",
		mk: func(t *testing.T) backend.Store {
			return backend.NewAttemptStore(backend.NewMemStore(), backend.AttemptPolicy{Hedge: &backend.HedgePolicy{}})
		},
		wrapLeaf: func(t *testing.T, leaf backend.Store) backend.Store {
			return backend.NewAttemptStore(leaf, backend.AttemptPolicy{Hedge: &backend.HedgePolicy{}})
		},
	},
	{
		// A 1ns hedge delay races a duplicate against every read.
		name: "retry+hedge",
		mk: func(t *testing.T) backend.Store {
			return retryHedgeStore(backend.NewMemStore())
		},
		wrapLeaf: func(t *testing.T, leaf backend.Store) backend.Store {
			return retryHedgeStore(leaf)
		},
	},
}

func retryStore(leaf backend.Store, p backend.RetryPolicy) backend.Store {
	return backend.NewAttemptStore(leaf, backend.AttemptPolicy{Retry: &p, Sleep: noSleep})
}

func retryHedgeStore(leaf backend.Store) backend.Store {
	return backend.NewAttemptStore(leaf, backend.AttemptPolicy{
		Retry: &backend.RetryPolicy{},
		Hedge: &backend.HedgePolicy{Delay: time.Nanosecond},
		Sleep: noSleep,
	})
}

func mkShard(t *testing.T, leaves ...backend.Store) *shard.Store {
	t.Helper()
	return mkShardR(t, 0, leaves...)
}

func mkShardR(t *testing.T, r int, leaves ...backend.Store) *shard.Store {
	t.Helper()
	s, err := shard.New(leaves, shard.Config{Replicas: r})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testNameKey() cryptoutil.Key {
	var k cryptoutil.Key
	for i := range k {
		k[i] = byte(i)
	}
	return k
}

func TestContractErrNotExist(t *testing.T) {
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			s := im.mk(t)

			if _, err := s.Open("missing", backend.OpenRead); !errors.Is(err, backend.ErrNotExist) {
				t.Errorf("Open(missing, read): %v, want ErrNotExist", err)
			} else if !backend.IsFatal(err) {
				t.Errorf("Open(missing) classifies %v, want fatal", backend.Classify(err))
			}
			if _, err := s.Open("missing", backend.OpenWrite); !errors.Is(err, backend.ErrNotExist) {
				t.Errorf("Open(missing, write): %v, want ErrNotExist", err)
			}
			if err := s.Remove("missing"); !errors.Is(err, backend.ErrNotExist) {
				t.Errorf("Remove(missing): %v, want ErrNotExist", err)
			}
			if _, err := s.Stat("missing"); !errors.Is(err, backend.ErrNotExist) {
				t.Errorf("Stat(missing): %v, want ErrNotExist", err)
			}

			// The ctx paths agree with the plain paths.
			if sc, ok := s.(backend.StoreCtx); ok {
				ctx := context.Background()
				if _, err := sc.OpenCtx(ctx, "missing", backend.OpenRead); !errors.Is(err, backend.ErrNotExist) {
					t.Errorf("OpenCtx(missing): %v, want ErrNotExist", err)
				}
				if _, err := sc.StatCtx(ctx, "missing"); !errors.Is(err, backend.ErrNotExist) {
					t.Errorf("StatCtx(missing): %v, want ErrNotExist", err)
				}
			}
		})
	}
}

func TestContractRoundTripStaysUnclassified(t *testing.T) {
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			s := im.mk(t)
			payload := []byte("contract payload")
			if err := backend.WriteFile(s, "seg/0", payload); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			got, err := backend.ReadFile(s, "seg/0")
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			if string(got) != string(payload) {
				t.Fatalf("round trip: %q", got)
			}
			names, err := s.List()
			if err != nil || len(names) != 1 || names[0] != "seg/0" {
				t.Fatalf("List = %v, %v", names, err)
			}
			if n, err := s.Stat("seg/0"); err != nil || n != int64(len(payload)) {
				t.Fatalf("Stat = %d, %v", n, err)
			}
		})
	}
}

// TestContractMultiHandleCoherence: two handles open on the same name
// see each other's writes and truncates immediately, before any Sync.
// The engine's sharded mode opens one handle per shard over the same
// backend file and reads metadata through a different handle than the
// one that wrote it, so coherence is part of the Store contract, not
// an implementation nicety.
func TestContractMultiHandleCoherence(t *testing.T) {
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			s := im.mk(t)
			if err := backend.WriteFile(s, "k", []byte("aaaaaaaa")); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			a, err := s.Open("k", backend.OpenWrite)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := s.Open("k", backend.OpenWrite)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			if _, err := a.WriteAt([]byte("BB"), 2); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			if _, err := b.ReadAt(buf, 0); err != nil {
				t.Fatalf("read through sibling handle: %v", err)
			}
			if string(buf) != "aaBBaaaa" {
				t.Fatalf("sibling handle read %q; writes are not coherent across handles", buf)
			}

			if err := a.Truncate(4); err != nil {
				t.Fatal(err)
			}
			if n, err := b.Size(); err != nil || n != 4 {
				t.Fatalf("sibling handle Size after truncate = %d, %v; want 4", n, err)
			}
		})
	}
}

// errLeaf fails every operation with a fixed (pre-marked) error; the
// preservation sweep wraps it in each wrapper and asserts the mark
// survives the wrapper's own error decoration.
type errLeaf struct{ err error }

func (s errLeaf) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return nil, s.err
}
func (s errLeaf) Remove(name string) error             { return s.err }
func (s errLeaf) Rename(oldName, newName string) error { return s.err }
func (s errLeaf) List() ([]string, error)              { return nil, s.err }
func (s errLeaf) Stat(name string) (int64, error)      { return 0, s.err }

func TestContractClassificationPreservedThroughWrapping(t *testing.T) {
	for _, im := range impls {
		if im.wrapLeaf == nil {
			continue // leaf stores wrap nothing
		}
		t.Run(im.name, func(t *testing.T) {
			for _, tc := range []struct {
				class string
				err   error
				want  backend.Class
			}{
				{"retryable", backend.Retryable(errors.New("leaf transient")), backend.ClassRetryable},
				{"fatal", backend.Fatal(errors.New("leaf dead")), backend.ClassFatal},
			} {
				t.Run(tc.class, func(t *testing.T) {
					s := im.wrapLeaf(t, errLeaf{err: tc.err})
					// Probe the namespace ops; every one must preserve the
					// leaf's classification through the wrapper's wrapping.
					probes := map[string]func() error{
						"Open": func() error {
							_, err := s.Open("k", backend.OpenRead)
							return err
						},
						"Stat":   func() error { _, err := s.Stat("k"); return err },
						"Remove": func() error { return s.Remove("k") },
					}
					for op, probe := range probes {
						err := probe()
						if err == nil {
							t.Fatalf("%s over failing leaf returned nil", op)
						}
						if got := backend.Classify(err); got != tc.want {
							t.Errorf("%s: Classify = %v, want %v (err: %v)", op, got, tc.want, err)
						}
						if !errors.Is(err, tc.err) {
							t.Errorf("%s: original error lost from chain: %v", op, err)
						}
					}
				})
			}
		})
	}
}
