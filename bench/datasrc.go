package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"lamassu"
	"lamassu/internal/backend"
	"lamassu/internal/datagen"
	"lamassu/internal/plainfs"
)

const blockSize = 4096

// genFile returns the content of one datagen.Synthetic file of the
// given size. The generator writes through a vfs.FS, so it is pointed
// at a plain file system over a memory store and the bytes are read
// back; the program under test never sees the generator, only this
// slice.
func genFile(bytes int64, alpha, compressibility float64, seed int64) ([]byte, error) {
	st := backend.NewMemStore()
	s := datagen.Synthetic{
		Blocks:          int(bytes / blockSize),
		BlockSize:       blockSize,
		Alpha:           alpha,
		Seed:            seed,
		Compressibility: compressibility,
	}
	if err := s.Generate(plainfs.New(st), "src"); err != nil {
		return nil, fmt.Errorf("generate source data: %w", err)
	}
	return backend.ReadFile(st, "src")
}

// fileSeed spreads one benchmark seed over the files of a workload.
func fileSeed(seed int64, file int) int64 { return seed*1000 + int64(file) + 1 }

// seededKeys derives the zone keys from the seed, so two runs with one
// seed store byte-identical ciphertext.
func seededKeys(seed int64) (lamassu.KeyPair, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6c616d61737375))
	inner, outer := make([]byte, 32), make([]byte, 32)
	rng.Read(inner)
	rng.Read(outer)
	return lamassu.KeysFromBytes(inner, outer)
}

// opKind says what an op does and which clock it is charged to.
type opKind uint8

const (
	// kWrite and kRead are the two gated op kinds: each is one latency
	// sample, and its duration counts into the write (read) time of its
	// client.
	kWrite opKind = iota
	kRead
	// kWriteAux and kReadAux are the opens, closes and flushes that
	// bracket a stream: charged to the write (read) time, so throughput
	// means "made durable" and "handle released", but not latency
	// samples.
	kWriteAux
	kReadAux
	// The rest are timed for the per-layer table only.
	kRangeGet
	kStat
	kList
	numKinds
)

var kindNames = [numKinds]string{"write", "read", "write-aux", "read-aux", "range-get", "stat", "list"}

// auxCall distinguishes the bracket calls of kWriteAux/kReadAux.
type auxCall uint8

const (
	auxNone auxCall = iota
	auxOpen
	auxClose
)

// op is one step of a client's fixed list. file indexes the workload's
// files (or objects); off and n give the byte range, and src is where in
// the source data the bytes a write carries (or a read of a streamed
// file or an object must return) are found.
type op struct {
	kind opKind
	aux  auxCall
	file int32
	off  int64
	n    int32
	src  int64
}

// phase is a stretch of a round that all clients enter together: seq
// workloads split a round into a write phase and a read phase, so each
// has its own CPU figure; mixed workloads have one phase.
type phase struct {
	name string
	ops  [][]op // per client
}

// streamPhases builds the write-then-read phases of a streaming
// workload: client c owns file c and moves it in opBytes steps.
func streamPhases(clients int, fileBytes int64, opBytes int) []phase {
	w := phase{name: "write", ops: make([][]op, clients)}
	r := phase{name: "read", ops: make([][]op, clients)}
	for c := 0; c < clients; c++ {
		f := int32(c)
		w.ops[c] = append(w.ops[c], op{kind: kWriteAux, aux: auxOpen, file: f})
		r.ops[c] = append(r.ops[c], op{kind: kReadAux, aux: auxOpen, file: f})
		for off := int64(0); off < fileBytes; off += int64(opBytes) {
			n := int64(opBytes)
			if off+n > fileBytes {
				n = fileBytes - off
			}
			w.ops[c] = append(w.ops[c], op{kind: kWrite, file: f, off: off, n: int32(n), src: off})
			r.ops[c] = append(r.ops[c], op{kind: kRead, file: f, off: off, n: int32(n), src: off})
		}
		w.ops[c] = append(w.ops[c], op{kind: kWriteAux, aux: auxClose, file: f})
		r.ops[c] = append(r.ops[c], op{kind: kReadAux, aux: auxClose, file: f})
	}
	return []phase{w, r}
}

// randPhase builds the mixed phase of local-rand: per client a seeded
// list of n ops over its own file of fileBytes, 70 % reads, sizes 60 %
// 4 KiB aligned, 25 % 16 KiB aligned, 15 % 1-8 KiB at any byte offset.
// A round writes every block several times over, and the engine skips a
// write whose content is already stored, so a write takes its bytes from
// a seeded place of its own in the source data (at the same offset
// within a block, so that whole source blocks stay whole).
func randPhase(seed int64, clients int, fileBytes int64, n int) []phase {
	p := phase{name: "mixed", ops: make([][]op, clients)}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		ops := make([]op, n)
		for i := range ops {
			o := op{kind: kRead, file: int32(c)}
			if rng.Intn(100) < 30 {
				o.kind = kWrite
			}
			switch s := rng.Intn(100); {
			case s < 60:
				o.n = 4 << 10
				o.off = rng.Int63n(fileBytes/int64(o.n)) * int64(o.n)
			case s < 85:
				o.n = 16 << 10
				o.off = rng.Int63n(fileBytes/int64(o.n)) * int64(o.n)
			default:
				o.n = int32(1<<10 + rng.Intn(7<<10+1))
				o.off = rng.Int63n(fileBytes - int64(o.n))
			}
			if o.kind == kWrite {
				o.src = rng.Int63n((fileBytes-int64(o.n))/blockSize)*blockSize + o.off%blockSize
			}
			ops[i] = o
		}
		p.ops[c] = ops
	}
	return []phase{p}
}

// objectPhase builds the mixed phase of wire-objects: client c cycles
// over its own objects — PUT, whole GET, ranged GET, stat, and a list
// every 16th cycle.
func objectPhase(seed int64, clients, objects int, objBytes, rangeBytes int) []phase {
	p := phase{name: "mixed", ops: make([][]op, clients)}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*104729 + int64(c)))
		for i := 0; i < objects; i++ {
			f := int32(c*objects + i)
			roff := int64(rng.Intn(objBytes-rangeBytes+1)) &^ 4095
			p.ops[c] = append(p.ops[c],
				op{kind: kWrite, file: f, n: int32(objBytes)},
				op{kind: kRead, file: f, n: int32(objBytes)},
				op{kind: kRangeGet, file: f, off: roff, n: int32(rangeBytes), src: roff},
				op{kind: kStat, file: f, n: int32(objBytes)},
			)
			if i%16 == 15 {
				p.ops[c] = append(p.ops[c], op{kind: kList, file: f})
			}
		}
	}
	return []phase{p}
}

// opsHash fingerprints a round's op lists; dataHash fingerprints the
// source files. Same seed, same hashes — the determinism the tests pin.
func opsHash(phases []phase) [32]byte {
	h := sha256.New()
	var b [26]byte
	for _, p := range phases {
		h.Write([]byte(p.name))
		for c, ops := range p.ops {
			binary.LittleEndian.PutUint64(b[:8], uint64(c))
			h.Write(b[:8])
			for _, o := range ops {
				b[0], b[1] = byte(o.kind), byte(o.aux)
				binary.LittleEndian.PutUint32(b[2:6], uint32(o.file))
				binary.LittleEndian.PutUint64(b[6:14], uint64(o.off))
				binary.LittleEndian.PutUint32(b[14:18], uint32(o.n))
				binary.LittleEndian.PutUint64(b[18:26], uint64(o.src))
				h.Write(b[:])
			}
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func dataHash(files [][]byte) [32]byte {
	h := sha256.New()
	for _, f := range files {
		h.Write(f)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
