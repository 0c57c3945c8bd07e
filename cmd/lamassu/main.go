// Command lamassu is a CLI for working with Lamassu-encrypted backing
// directories — the operational face of the shim: copy files in and
// out, list and stat them, audit integrity, recover after a crash,
// and rotate keys. The encrypted backing directory it manages can be
// synced, replicated or backed up with ordinary tools; that
// portability is the point of embedding the metadata in-stream (§1).
//
// Key material comes from either a key file (two hex-encoded 32-byte
// keys, created with `lamassu keygen`) or a running key server
// (cmd/kmipd) via -kmip and -zone.
//
// Usage:
//
//	lamassu keygen -keyfile zone.keys
//	lamassu put    -store /mnt/backing -keyfile zone.keys local.dat name
//	lamassu get    -store /mnt/backing -keyfile zone.keys name local.dat
//	lamassu ls     -store /mnt/backing -keyfile zone.keys
//	lamassu stat   -store /mnt/backing -keyfile zone.keys name
//	lamassu rm     -store /mnt/backing -keyfile zone.keys name
//	lamassu fsck   -store /mnt/backing -keyfile zone.keys [name]
//	lamassu recover -store /mnt/backing -keyfile zone.keys [name]
//	lamassu rekey  -store /mnt/backing -keyfile zone.keys -newkeyfile new.keys [-full] [name]
//	lamassu rebalance -shards /d1,/d2 -keyfile zone.keys -newshards /d1,/d2,/d3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lamassu"
	"lamassu/internal/dedupe"
	"lamassu/internal/keyfile"
	"lamassu/internal/kmip"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	store := fs.String("store", "", "backing directory holding encrypted files")
	shards := fs.String("shards", "", "comma-separated backing directories to stripe across (alternative to -store)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard on the placement ring (0 = default 64; must match across runs)")
	stripeKB := fs.Int64("stripe", 0, "shard stripe unit in KiB (0 = whole-file placement; must match across runs)")
	keyfile := fs.String("keyfile", "", "file with hex inner+outer keys (see keygen)")
	kmipAddr := fs.String("kmip", "", "key server address (alternative to -keyfile)")
	zone := fs.Uint("zone", 1, "isolation zone when using -kmip")
	newKeyfile := fs.String("newkeyfile", "", "rekey: file with the new key pair")
	newShards := fs.String("newshards", "", "rebalance: comma-separated directories of the NEW topology (grow by appending, shrink by removing a suffix)")
	full := fs.Bool("full", false, "rekey: rotate the inner key too (re-encrypts all data)")
	blockSize := fs.Int("block", 4096, "layout block size")
	reserved := fs.Int("r", 8, "reserved key slots per metadata block (R)")
	metaOnly := fs.Bool("meta-only", false, "skip per-data-block integrity checks on read")
	compress := fs.Bool("compress", false, "compress blocks before encryption (deterministic; dedup preserved)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	args := fs.Args()

	if cmd == "keygen" {
		if err := keygen(*keyfile); err != nil {
			die(err)
		}
		return
	}
	if cmd == "help" || cmd == "-h" || cmd == "--help" {
		usage()
		return
	}

	if *store == "" && *shards == "" {
		die(fmt.Errorf("-store or -shards is required"))
	}
	if *store != "" && *shards != "" {
		die(fmt.Errorf("use -store or -shards, not both"))
	}
	if *shards == "" && (*vnodes != 0 || *stripeKB != 0) {
		die(fmt.Errorf("-vnodes and -stripe apply only with -shards"))
	}
	keys, err := loadKeys(*keyfile, *kmipAddr, uint32(*zone))
	if err != nil {
		die(err)
	}
	storage, shardStores, shardDirs, err := openStorage(*store, *shards, *vnodes, *stripeKB<<10)
	if err != nil {
		die(err)
	}
	opts := []lamassu.Option{lamassu.WithBlockSize(*blockSize), lamassu.WithReservedSlots(*reserved)}
	if *metaOnly {
		opts = append(opts, lamassu.WithIntegrity(lamassu.IntegrityMetaOnly))
	}
	if *compress {
		opts = append(opts, lamassu.WithCompression())
	}
	m, err := lamassu.New(storage, keys, opts...)
	if err != nil {
		die(err)
	}

	// Ctrl-C cancels the context threaded through every long-running
	// operation below; a canceled put/rekey leaves the file in a
	// crash-equivalent, recoverable state (run `fsck` / `recover`).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	switch cmd {
	case "put":
		need(args, 2, "put <local-file> <name>")
		data, err := os.ReadFile(args[0])
		if err != nil {
			die(err)
		}
		if err := m.WriteFileCtx(ctx, args[1], data); err != nil {
			die(err)
		}
		fmt.Printf("stored %s as %q (%d bytes, +%d bytes metadata)\n",
			args[0], args[1], len(data), m.SpaceOverhead(int64(len(data))))

	case "get":
		need(args, 2, "get <name> <local-file>")
		data, err := m.ReadFileCtx(ctx, args[0])
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(args[1], data, 0o644); err != nil {
			die(err)
		}
		fmt.Printf("retrieved %q to %s (%d bytes, integrity verified)\n", args[0], args[1], len(data))

	case "ls":
		names, err := m.List()
		if err != nil {
			die(err)
		}
		for _, n := range names {
			sz, err := m.Stat(n)
			if err != nil {
				fmt.Printf("%-40s (unreadable: %v)\n", n, err)
				continue
			}
			fmt.Printf("%-40s %12d\n", n, sz)
		}

	case "stat":
		need(args, 1, "stat <name>")
		sz, err := m.Stat(args[0])
		if err != nil {
			die(err)
		}
		fmt.Printf("%s: %d logical bytes, %d bytes metadata overhead\n",
			args[0], sz, m.SpaceOverhead(sz))

	case "rm":
		need(args, 1, "rm <name>")
		if err := m.Remove(args[0]); err != nil {
			die(err)
		}

	case "fsck":
		forEach(m, args, func(name string) error {
			rep, err := m.CheckCtx(ctx, name)
			if err != nil {
				return err
			}
			status := "clean"
			if !rep.Clean() {
				status = "DAMAGED"
			}
			fmt.Printf("%-40s %s (%d segments, %d data blocks, %d midupdate, %d bad meta, %d bad data)\n",
				name, status, rep.Segments, rep.DataBlocks, rep.MidUpdate, rep.BadMeta, rep.BadData)
			return nil
		})

	case "recover":
		forEach(m, args, func(name string) error {
			st, err := m.RecoverCtx(ctx, name)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Printf("%-40s %d segments scanned, %d repaired\n", name, st.Segments, st.Repaired)
			return nil
		})

	case "df":
		// What a downstream deduplicating filer would reclaim from
		// this backing directory (the paper's §4.1 measurement).
		eng, err := dedupe.NewEngine(*blockSize)
		if err != nil {
			die(err)
		}
		rep, err := eng.Scan(storage)
		if err != nil {
			die(err)
		}
		fmt.Printf("files:            %d\n", rep.Files)
		fmt.Printf("blocks:           %d (%d bytes)\n", rep.TotalBlocks, rep.BytesBefore)
		fmt.Printf("after dedup:      %d (%d bytes)\n", rep.UniqueBlocks, rep.BytesAfter)
		fmt.Printf("reclaimable:      %.2f%%\n", 100*rep.SavedFraction())

	case "rebalance":
		// Migrate the deployment to the -newshards topology through this
		// process's own mount — the epoch machinery every rebalance uses
		// (dual-ring reads, mirrored writes, resumable mover, persisted
		// layout record), so a Ctrl-C here leaves the deployment
		// consistent and the next run resumes it.
		if *shards == "" {
			die(fmt.Errorf("rebalance requires -shards (the CURRENT topology)"))
		}
		if *newShards == "" {
			die(fmt.Errorf("rebalance requires -newshards"))
		}
		newList, err := openNewTopology(*newShards, shardDirs, shardStores)
		if err != nil {
			die(err)
		}
		reb, err := m.StartRebalance(ctx, newList...)
		if err != nil {
			die(err)
		}
		if err := reb.Wait(); err != nil {
			if lamassu.IsCanceled(err) {
				st := m.RebalanceStatus()
				fmt.Printf("rebalance interrupted at %d/%d keys; rerun the same command to resume\n",
					st.MovedKeys, st.TotalKeys)
				os.Exit(130)
			}
			die(err)
		}
		st := reb.Stats()
		status := m.RebalanceStatus()
		fmt.Printf("rebalance committed epoch %d: %d files examined, %d moved (%d keys, %d bytes), %d stale copies removed\n",
			status.Epoch, st.Files, st.MovedFiles, st.MovedStripes, st.MovedBytes, st.RemovedCopies)

	case "rekey":
		if *newKeyfile == "" {
			die(fmt.Errorf("rekey requires -newkeyfile"))
		}
		newKeys, err := readKeyfile(*newKeyfile)
		if err != nil {
			die(err)
		}
		forEach(m, args, func(name string) error {
			if *full {
				st, err := m.RekeyFullCtx(ctx, name, newKeys)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				fmt.Printf("%-40s full rekey: %d metadata + %d data blocks re-encrypted\n",
					name, st.MetaBlocks, st.DataBlocks)
				return nil
			}
			st, err := m.RekeyOuterCtx(ctx, name, newKeys.Outer)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Printf("%-40s partial rekey: %d metadata blocks re-sealed\n", name, st.MetaBlocks)
			return nil
		})

	default:
		usage()
		os.Exit(2)
	}
}

// openStorage opens either a single backing directory or a sharded
// store striped across several of them, returning the per-shard
// stores and directories for the rebalance subcommand (nil for a
// single -store). The directory order, vnode count and stripe unit
// are part of the placement, so the same -shards/-vnodes/-stripe
// values must be used on every invocation against one deployment.
func openStorage(store, shards string, vnodes int, stripeBytes int64) (lamassu.Storage, []lamassu.Storage, []string, error) {
	if shards == "" {
		s, err := lamassu.NewDirStorage(store)
		return s, nil, nil, err
	}
	dirs := splitDirs(shards)
	if len(dirs) == 0 {
		return nil, nil, nil, fmt.Errorf("-shards lists no directories")
	}
	stores := make([]lamassu.Storage, len(dirs))
	for i, d := range dirs {
		s, err := lamassu.NewDirStorage(d)
		if err != nil {
			return nil, nil, nil, err
		}
		stores[i] = s
	}
	storage, err := lamassu.NewShardedStorage(stores, &lamassu.ShardOptions{
		Vnodes:      vnodes,
		StripeBytes: stripeBytes,
	})
	return storage, stores, dirs, err
}

func splitDirs(list string) []string {
	var dirs []string
	for _, d := range strings.Split(list, ",") {
		if d = strings.TrimSpace(d); d != "" {
			dirs = append(dirs, d)
		}
	}
	return dirs
}

// openNewTopology resolves the -newshards directory list against the
// currently opened stores: a directory both topologies share keeps
// its already-open store (the mover compares stores by IDENTITY to
// decide what to copy — distinct handles over one directory would
// read as a full move), new directories open fresh. The grow/shrink
// prefix contract is enforced up front for a readable error.
func openNewTopology(newShards string, curDirs []string, curStores []lamassu.Storage) ([]lamassu.Storage, error) {
	newDirs := splitDirs(newShards)
	if len(newDirs) == 0 {
		return nil, fmt.Errorf("-newshards lists no directories")
	}
	short := min(len(newDirs), len(curDirs))
	if len(newDirs) == len(curDirs) {
		return nil, fmt.Errorf("-newshards lists the same number of directories as -shards; nothing to rebalance")
	}
	for i := 0; i < short; i++ {
		if newDirs[i] != curDirs[i] {
			return nil, fmt.Errorf("-newshards directory %d is %q but the current topology has %q; grow by appending directories, shrink by removing a suffix", i, newDirs[i], curDirs[i])
		}
	}
	stores := make([]lamassu.Storage, len(newDirs))
	for i := range newDirs {
		if i < short {
			stores[i] = curStores[i]
			continue
		}
		s, err := lamassu.NewDirStorage(newDirs[i])
		if err != nil {
			return nil, err
		}
		stores[i] = s
	}
	return stores, nil
}

// forEach applies f to the named files, or to every file when none
// are named.
func forEach(m *lamassu.Mount, args []string, f func(string) error) {
	names := args
	if len(names) == 0 {
		var err error
		names, err = m.List()
		if err != nil {
			die(err)
		}
	}
	for _, n := range names {
		if err := f(n); err != nil {
			die(err)
		}
	}
}

func keygen(path string) error {
	if path == "" {
		return fmt.Errorf("keygen requires -keyfile")
	}
	pair, err := keyfile.Generate()
	if err != nil {
		return err
	}
	if err := keyfile.Write(path, pair); err != nil {
		return err
	}
	fmt.Printf("wrote new key pair to %s (mode 0600) — guard it; without the outer key the data is unreadable\n", path)
	return nil
}

func loadKeys(keyfile, kmipAddr string, zone uint32) (lamassu.KeyPair, error) {
	switch {
	case keyfile != "" && kmipAddr != "":
		return lamassu.KeyPair{}, fmt.Errorf("use -keyfile or -kmip, not both")
	case keyfile != "":
		return readKeyfile(keyfile)
	case kmipAddr != "":
		return fetchKeys(kmipAddr, kmip.Zone(zone))
	default:
		return lamassu.KeyPair{}, fmt.Errorf("one of -keyfile or -kmip is required")
	}
}

// fetchKeys provisions (idempotently) and retrieves a zone's key pair
// from a running key server (cmd/kmipd), the deployment model of the
// paper's §3: clients of one isolation zone share both keys.
func fetchKeys(addr string, zone kmip.Zone) (lamassu.KeyPair, error) {
	c, err := kmip.Dial(addr)
	if err != nil {
		return lamassu.KeyPair{}, err
	}
	defer c.Close()
	if _, err := c.CreateZone(zone); err != nil {
		return lamassu.KeyPair{}, err
	}
	p, err := c.GetPair(zone)
	return lamassu.KeyPair{Inner: p.Inner, Outer: p.Outer}, err
}

func readKeyfile(path string) (lamassu.KeyPair, error) {
	pair, err := keyfile.Load(path)
	return lamassu.KeyPair{Inner: pair.Inner, Outer: pair.Outer}, err
}

func need(args []string, n int, usage string) {
	if len(args) != n {
		die(fmt.Errorf("usage: lamassu %s", usage))
	}
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "lamassu: %v\n", err)
	os.Exit(1)
}

const usageMessage = `lamassu — storage-efficient host-side encryption (USENIX ATC'15 reproduction)

subcommands:
  keygen  -keyfile F                         generate a new isolation-zone key pair
  put     <local> <name>                     encrypt and store a file
  get     <name> <local>                     retrieve and decrypt a file
  ls                                         list files with logical sizes
  stat    <name>                             show logical size and metadata overhead
  rm      <name>                             delete a file
  fsck    [name...]                          audit metadata tags and block integrity
  recover [name...]                          repair interrupted multiphase commits
  df                                         dedup savings a filer would reclaim
  rekey   -newkeyfile F [-full] [name...]    rotate outer key (or both with -full)
  rebalance -newshards D1,D2,...             migrate to a new shard topology
                                             (resumable, epoch-versioned,
                                             Ctrl-C-safe)

common flags: -store DIR (or -shards DIR1,DIR2,... [-vnodes N] [-stripe KIB]),
              and -keyfile F or -kmip ADDR -zone N
layout flags: -block 4096, -r 8, -meta-only, -compress (compress-then-encrypt
              on new writes; reads are self-describing either way)

-shards stripes the encrypted backing files across several directories
behind a consistent-hash placement map; pass the SAME directory list,
-vnodes and -stripe on every run against one deployment.
`

func usage() {
	fmt.Fprint(os.Stderr, usageMessage)
}
