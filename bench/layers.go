package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lamassu"
	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/serve"
	"lamassu/internal/shard"
)

// spansPath, when set (-spans), receives every span of the traced run.
var spansPath string

// snapshot is every public counter the program exports, read before and
// after the timed rounds of the traced stack.
type snapshot struct {
	engine   lamassu.EngineStats
	cache    lamassu.CacheStats
	pool     lamassu.PoolStats
	shards   []lamassu.ShardStat
	latency  []lamassu.LatencySlice
	servers  objstore.ServerStats // summed over leaves
	leaves   leafCounts           // summed over leaves
	limiter  serve.LimiterStats
	requests int64
}

func takeSnapshot(e *env) snapshot {
	s := snapshot{
		engine:  e.mount.EngineStats(),
		cache:   e.mount.CacheStats(),
		pool:    e.mount.PoolStats(),
		shards:  e.mount.ShardStats(),
		latency: e.mount.Latency(),
	}
	for _, ms := range e.servers {
		st := ms.Stats()
		s.servers.Gets += st.Gets
		s.servers.Puts += st.Puts
		s.servers.Parts += st.Parts
		s.servers.Completes += st.Completes
		s.servers.Aborts += st.Aborts
		s.servers.Heads += st.Heads
		s.servers.Lists += st.Lists
		s.servers.Deletes += st.Deletes
		s.servers.Copies += st.Copies
		s.servers.BytesIn += st.BytesIn
		s.servers.BytesOut += st.BytesOut
		s.servers.OpenUploads += st.OpenUploads
	}
	for _, l := range e.leaves {
		c := l.counts()
		s.leaves.ops += c.ops
		s.leaves.readBytes += c.readBytes
		s.leaves.writeBytes += c.writeBytes
	}
	if e.srv != nil {
		s.limiter = e.srv.Limiter().Stats()
		for _, n := range e.srv.RequestCounts() {
			s.requests += n
		}
	}
	return s
}

func serverRequests(s objstore.ServerStats) int64 {
	return s.Gets + s.Puts + s.Parts + s.Completes + s.Aborts + s.Heads + s.Lists + s.Deletes + s.Copies
}

// depthSampler polls the live per-shard queue depth once a millisecond:
// the program exports the depth only as a gauge, so its peak has to be
// watched from outside.
type depthSampler struct {
	peak atomic.Int64
	done chan struct{}
	wg   sync.WaitGroup
}

func startDepthSampler(m *lamassu.Mount) *depthSampler {
	d := &depthSampler{done: make(chan struct{})}
	if m.ShardStats() == nil {
		return d
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.done:
				return
			case <-tick.C:
				for _, s := range m.ShardStats() {
					if s.QueueDepth > d.peak.Load() {
						d.peak.Store(s.QueueDepth)
					}
				}
			}
		}
	}()
	return d
}

func (d *depthSampler) stop() {
	close(d.done)
	d.wg.Wait()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// perLayer fills in the per-layer metrics of a traced run. plain and
// traced ran the same rounds in turn; twin (wire-objects only) ran them
// in-process.
func perLayer(res *result, cfg runConfig, plain, traced, twin *stack, before, after snapshot, sampler *depthSampler, rest atRest) error {
	set := func(name string, v float64) { put(res, name, layerUnit(name), v) }
	for _, s := range layerSpecs {
		set(s.Name, 0)
	}
	e := traced.env
	nRounds := float64(len(traced.rounds))
	var moved, ops int64
	var allocs, allocBytes uint64
	for _, rs := range traced.rounds {
		moved += rs.movedBytes()
		allocs += rs.allocs
		allocBytes += rs.allocBytes
	}
	for k := range traced.samples.byKind {
		ops += int64(len(traced.samples.byKind[k]))
	}
	movedMiB := float64(moved) / (1 << 20)
	sm := &traced.samples
	tree := buildTree(traced.spans)
	plainOpTime := roundOpTime(plain)

	// serve
	if e.srv != nil {
		set("serve.requests", float64(after.requests-before.requests)/nRounds)
		set("serve.rejected_503", float64(after.limiter.Rejected-before.limiter.Rejected))
		set("serve.peak_inflight", float64(after.limiter.PeakInFlight))
		set("serve.range_get_ms_p50", percentileMs(sm.byKind[kRangeGet], 0.5))
		set("serve.stat_ms_p50", percentileMs(sm.byKind[kStat], 0.5))
		set("serve.list_ms_p50", percentileMs(sm.byKind[kList], 0.5))
		set("serve.put_ms_p99", percentileMs(sm.byKind[kWrite], 0.99))
		set("serve.get_ms_p99", percentileMs(sm.byKind[kRead], 0.99))
		// The gap compares the two untraced stacks: the wire one and its
		// in-process twin.
		set("serve.wire_gap_put_ms_p50", percentileMs(plain.samples.byKind[kWrite], 0.5)-percentileMs(twin.samples.byKind[kWrite], 0.5))
		set("serve.wire_gap_get_ms_p50", percentileMs(plain.samples.byKind[kRead], 0.5)-percentileMs(twin.samples.byKind[kRead], 0.5))
		set("serve.wire_gap_share", 1-ratio(roundOpTime(twin), plainOpTime))
	}

	// mount
	calls := sm
	if twin != nil {
		calls = &twin.samples
	}
	writeCalls, syncCalls := calls.byKind[kWrite], calls.closeW
	if len(calls.callSync) > 0 {
		writeCalls, syncCalls = calls.callWrite, calls.callSync
	}
	set("mount.open_us_p50", us(percentile(calls.open, 0.5)))
	set("mount.write_call_us_p50", us(percentile(writeCalls, 0.5)))
	set("mount.write_call_us_p99", us(percentile(writeCalls, 0.99)))
	set("mount.sync_call_us_p50", us(percentile(syncCalls, 0.5)))
	set("mount.read_call_us_p50", us(percentile(calls.byKind[kRead], 0.5)))
	set("mount.read_call_us_p99", us(percentile(calls.byKind[kRead], 0.99)))
	covered, total := tree.coveredByLayer(traced.spans, spanLeaf)
	set("mount.upper_self_share", 1-ratio(float64(covered), float64(total)))

	// core
	en0, en1 := before.engine, after.engine
	ios := float64(en1.BackendIOs - en0.BackendIOs)
	set("core.backend_ios_per_mib", ratio(ios, movedMiB))
	set("core.bytes_per_io", ratio(float64(en1.IOBytes-en0.IOBytes), ios))
	set("core.write_runs", float64(en1.WriteRuns-en0.WriteRuns)/nRounds)
	set("core.read_runs", float64(en1.ReadRuns-en0.ReadRuns)/nRounds)
	hits, misses := float64(after.cache.Hits-before.cache.Hits), float64(after.cache.Misses-before.cache.Misses)
	set("core.cache_hit_rate", ratio(hits, hits+misses))
	set("core.prefetches", float64(en1.Prefetches-en0.Prefetches)/nRounds)
	sh, smiss := float64(en1.SlabHits-en0.SlabHits), float64(en1.SlabMisses-en0.SlabMisses)
	set("core.slab_hit_rate", ratio(sh, sh+smiss))
	set("core.pool_tasks_per_batch", ratio(float64(after.pool.Tasks-before.pool.Tasks), float64(after.pool.Batches-before.pool.Batches)))
	set("core.io_peak_inflight", float64(en1.IOPeakInFlight))
	comp, raw := float64(en1.CompressedBlocks-en0.CompressedBlocks), float64(en1.RawEscapes-en0.RawEscapes)
	set("core.compressed_block_share", ratio(comp, comp+raw))
	set("core.raw_escapes", raw/nRounds)
	set("core.allocs_per_op", ratio(float64(allocs), float64(ops)))
	set("core.alloc_kib_per_mib", ratio(float64(allocBytes)/1024, movedMiB))
	// The recorder times four of Figure 9's five slices; the fifth,
	// Misc, is what is left of the time the clients spent in their ops
	// (the four are summed over parallel workers, so on a fan-out
	// workload they can exceed it, and Misc is then 0).
	lat := map[string]time.Duration{}
	var timed time.Duration
	for i, s := range after.latency {
		d := s.Total
		if i < len(before.latency) {
			d -= before.latency[i].Total
		}
		lat[s.Category] = d
		timed += d
	}
	var opTime time.Duration
	for _, s := range traced.spans {
		if s.Layer == spanOp {
			opTime += time.Duration(s.dur())
		}
	}
	lat["Misc."] = max(opTime-timed, 0)
	whole := float64(timed + lat["Misc."])
	for cat, name := range map[string]string{"Encrypt": "core.fig9_encrypt_share", "Decrypt": "core.fig9_decrypt_share",
		"GetCEKey": "core.fig9_getcekey_share", "I/O": "core.fig9_io_share", "Misc.": "core.fig9_misc_share"} {
		d, ok := lat[cat]
		if !ok {
			return fmt.Errorf("Mount.Latency has no %q category (has %v)", cat, after.latency)
		}
		set(name, ratio(float64(d), whole))
	}

	// cryptoutil
	pr := cryptoProbe(e.src[0], cfg.seed)
	set("cryptoutil.hash_ns_per_block", pr.hash)
	set("cryptoutil.kdf_ns_per_block", pr.kdf)
	set("cryptoutil.encrypt_ns_per_block", pr.encrypt)
	set("cryptoutil.decrypt_ns_per_block", pr.decrypt)
	set("cryptoutil.compress_ns_per_block", pr.compress)
	set("cryptoutil.decompress_ns_per_block", pr.decompress)
	set("cryptoutil.sealmeta_ns", pr.seal)
	set("cryptoutil.openmeta_ns", pr.open)
	wNs, rNs := pr.hash+pr.kdf+pr.encrypt, pr.decrypt+pr.hash+pr.kdf
	if e.compress {
		wNs, rNs = wNs+pr.compress, rNs+pr.decompress
	}
	wBlocks, rBlocks, wPhases, rPhases := blocksTouched(e.phases)
	wBlocks, rBlocks = wBlocks*int64(e.passes), rBlocks*int64(e.passes)
	set("cryptoutil.write_cpu_share", ratio(float64(wBlocks)*wNs, roundPhaseCPU(plain, wPhases)))
	set("cryptoutil.read_cpu_share", ratio(float64(rBlocks)*rNs, roundPhaseCPU(plain, rPhases)))

	// shard
	if len(after.shards) > 0 && len(e.servers) > 0 {
		set("shard.replica_writes", float64(en1.ReplicaWrites-en0.ReplicaWrites)/nRounds)
		set("shard.failover_reads", float64(en1.FailoverReads-en0.FailoverReads))
		set("shard.breaker_opens", float64(en1.BreakerOpens-en0.BreakerOpens))
		var maxW, sumW float64
		for i, s := range after.shards {
			w := float64(s.BytesWritten)
			if i < len(before.shards) {
				w -= float64(before.shards[i].BytesWritten)
			}
			maxW, sumW = max(maxW, w), sumW+w
		}
		set("shard.write_imbalance", ratio(maxW, sumW/float64(len(after.shards))))
		set("shard.peak_queue_depth", float64(sampler.peak.Load()))
		over, err := shardRouteProbe(e.rec, traced.spans)
		if err != nil {
			return fmt.Errorf("shard probe: %w", err)
		}
		set("shard.route_overhead_us_per_op", over)
	}

	// retry
	set("retry.attempts", float64(en1.RetryAttempts-en0.RetryAttempts))
	set("retry.exhausted", float64(en1.RetriesExhausted-en0.RetriesExhausted))

	// objstore and backend: one is the leaf of this workload, the other
	// reads zero.
	var leafIvs []interval
	var leafDur, leafSelf int64
	var leafCalls, transCalls []time.Duration
	var overshoot, transN int64
	for _, s := range traced.spans {
		switch s.Layer {
		case spanLeaf:
			leafIvs = append(leafIvs, interval{s.Start, s.End})
			leafDur += s.dur()
			leafSelf += selfTime(s, tree.children[s.ID])
			leafCalls = append(leafCalls, time.Duration(s.dur()))
		case spanTransport:
			transCalls = append(transCalls, time.Duration(s.dur()))
			overshoot += s.dur() - s.Charged
			transN++
		}
	}
	busy := ratio(float64(unionLen(leafIvs, 0, 1<<62)), float64(traced.wallTimed))
	if len(e.servers) > 0 {
		sv0, sv1 := before.servers, after.servers
		sortDurations(leafCalls)
		sortDurations(transCalls)
		set("objstore.requests_per_mib", ratio(float64(serverRequests(sv1)-serverRequests(sv0)), movedMiB))
		set("objstore.gets", float64(sv1.Gets-sv0.Gets)/nRounds)
		set("objstore.puts", float64(sv1.Puts-sv0.Puts)/nRounds)
		set("objstore.parts", float64(sv1.Parts-sv0.Parts)/nRounds)
		set("objstore.completes", float64(sv1.Completes-sv0.Completes)/nRounds)
		set("objstore.heads", float64(sv1.Heads-sv0.Heads)/nRounds)
		set("objstore.bytes_in_per_logical", ratio(float64(sv1.BytesIn-sv0.BytesIn), float64(moved)))
		set("objstore.bytes_out_per_logical", ratio(float64(sv1.BytesOut-sv0.BytesOut), float64(moved)))
		set("objstore.store_call_ms_p50", percentileMs(leafCalls, 0.5))
		set("objstore.transport_ms_p50", percentileMs(transCalls, 0.5))
		set("objstore.self_share", ratio(float64(leafSelf), float64(leafDur)))
		set("objstore.leaf_busy_share", busy)
		set("objstore.rtt_overshoot_ms", ratio(float64(overshoot), float64(transN))/1e6)
		set("objstore.open_uploads_end", float64(sv1.OpenUploads))
	} else {
		l0, l1 := before.leaves, after.leaves
		set("backend.ops_per_mib", ratio(float64(l1.ops-l0.ops), movedMiB))
		set("backend.bytes_per_logical", ratio(float64(l1.readBytes+l1.writeBytes-l0.readBytes-l0.writeBytes), float64(moved)))
		set("backend.busy_share", busy)
	}

	// dedupe
	set("dedupe.total_blocks", float64(rest.totalBlocks))
	set("dedupe.unique_blocks", float64(rest.uniqueBlocks))
	set("dedupe.scan_s", rest.scan.Seconds())

	// trace
	set("trace.spans", float64(len(traced.spans)))
	set("trace.overhead_share", ratio(roundOpTime(traced), plainOpTime)-1)

	if spansPath != "" {
		return writeSpans(spansPath, e.rec, traced.spans)
	}
	return nil
}

// roundOpTime is the time the gated ops of one round take on the stack, in
// seconds: the median over its timed rounds.
func roundOpTime(s *stack) float64 {
	return medianOf(s.rounds, func(rs roundStats) float64 { return (rs.writeTime + rs.readTime).Seconds() })
}

// roundPhaseCPU is the CPU nanoseconds the named phases use in one round of
// the stack: the median over its timed rounds.
func roundPhaseCPU(s *stack, phases []string) float64 {
	return medianOf(s.rounds, func(rs roundStats) float64 {
		var d time.Duration
		for _, p := range phases {
			d += rs.phaseCPU[p]
		}
		return float64(d)
	})
}

// blocksTouched counts the 4 KiB blocks one pass's write ops and read
// ops cover, and names the phases that contain each kind.
func blocksTouched(phases []phase) (w, r int64, wPhases, rPhases []string) {
	for _, p := range phases {
		var pw, pr int64
		for _, ops := range p.ops {
			for _, o := range ops {
				if o.n == 0 {
					continue
				}
				n := (o.off+int64(o.n)-1)/blockSize - o.off/blockSize + 1
				switch o.kind {
				case kWrite:
					pw += n
				case kRead, kRangeGet:
					pr += n
				}
			}
		}
		if pw > 0 {
			wPhases = append(wPhases, p.name)
		}
		if pr > 0 {
			rPhases = append(rPhases, p.name)
		}
		w, r = w+pw, r+pr
	}
	return w, r, wPhases, rPhases
}

// cryptoCosts are single-thread nanoseconds per 4 KiB block (per
// metadata block for seal and open).
type cryptoCosts struct {
	hash, kdf, encrypt, decrypt, compress, decompress, seal, open float64
}

// cryptoProbe drives cryptoutil's block functions alone, on one
// goroutine, over blocks sampled evenly from the workload's own source
// data. Each figure is the median of five passes.
func cryptoProbe(src [][]byte, seed int64) cryptoCosts {
	const want = 2048
	var blocks [][]byte
	var totalBlocks int
	for _, f := range src {
		totalBlocks += len(f) / blockSize
	}
	step := max(totalBlocks/want, 1)
	i := 0
	for _, f := range src {
		for off := 0; off+blockSize <= len(f); off += blockSize {
			if i%step == 0 {
				blocks = append(blocks, f[off:off+blockSize])
			}
			i++
		}
	}
	keys, _ := seededKeys(seed)
	ced := cryptoutil.NewCEKeyDeriver(keys.Inner)
	n := len(blocks)
	hashes := make([]cryptoutil.Hash, n)
	cekeys := make([]cryptoutil.Key, n)
	ct := make([][]byte, n)
	frames := make([][]byte, n)
	for i := range ct {
		ct[i] = make([]byte, blockSize)
		frames[i] = make([]byte, blockSize-64)
	}
	pt := make([]byte, blockSize)
	perBlock := func(f func(i int)) float64 {
		var passes [5]float64
		for p := range passes {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				f(i)
			}
			passes[p] = float64(time.Since(t0)) / float64(n)
		}
		return median(passes[:])
	}
	var c cryptoCosts
	c.hash = perBlock(func(i int) { hashes[i] = cryptoutil.BlockHash(blocks[i]) })
	c.kdf = perBlock(func(i int) { cekeys[i] = ced.Derive(hashes[i]) })
	c.encrypt = perBlock(func(i int) { _ = cryptoutil.EncryptBlockCBC(ct[i], blocks[i], cekeys[i]) })
	c.decrypt = perBlock(func(i int) { _ = cryptoutil.DecryptBlockCBC(pt, ct[i], cekeys[i]) })
	frameLen := make([]int, n)
	c.compress = perBlock(func(i int) { frameLen[i], _ = cryptoutil.CompressBlock(frames[i], blocks[i]) })
	c.decompress = perBlock(func(i int) {
		if frameLen[i] > 0 {
			_ = cryptoutil.DecompressBlock(pt, frames[i][:frameLen[i]])
		}
	})
	meta := make([]byte, blockSize-cryptoutil.GCMNonceSize-cryptoutil.GCMTagSize)
	copy(meta, blocks[0])
	var nonce [cryptoutil.GCMNonceSize]byte
	aad := []byte("bench")
	sealed := make([][]byte, n)
	tags := make([][cryptoutil.GCMTagSize]byte, n)
	c.seal = perBlock(func(i int) { sealed[i], tags[i], _ = cryptoutil.SealMeta(meta, keys.Outer, nonce, aad) })
	c.open = perBlock(func(i int) { _, _ = cryptoutil.OpenMeta(sealed[i], keys.Outer, nonce, tags[i], aad) })
	return c
}

// shardRouteProbe replays the reads and writes the leaves saw through a
// shard.Store over memory leaves, and the same calls on a bare memory
// store (writes once per replica, as the leaves received them), and
// returns the extra microseconds per call the routing layer costs.
func shardRouteProbe(rec *recorder, spans []span) (float64, error) {
	type shape struct {
		file  string
		off   int64
		n     int64
		write bool
	}
	seen := map[shape]bool{}
	var shapes []shape
	for _, s := range spans {
		if s.Layer != spanLeaf || (s.Name != nRead && s.Name != nWrite) || s.Bytes == 0 {
			continue
		}
		sh := shape{rec.fileName(s.File), s.Off, s.Bytes, s.Name == nWrite}
		if !seen[sh] {
			seen[sh] = true
			shapes = append(shapes, sh)
		}
	}
	if len(shapes) == 0 {
		return 0, nil
	}
	stripe, err := lamassu.SegmentStripeBytes(nil, 1<<20)
	if err != nil {
		return 0, err
	}
	leaves := make([]backend.Store, objLeaves)
	for i := range leaves {
		leaves[i] = backend.NewMemStore()
	}
	routed, err := shard.New(leaves, shard.Config{StripeBytes: stripe, Replicas: objReplicas})
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 0)
	for _, sh := range shapes {
		if int(sh.n) > len(buf) {
			buf = make([]byte, sh.n)
		}
	}
	replay := func(st backend.Store, copies int) (time.Duration, error) {
		files := map[string]backend.File{}
		defer func() {
			for _, f := range files {
				f.Close()
			}
		}()
		// Writes first, so every read finds its bytes.
		var total time.Duration
		for _, wantWrite := range []bool{true, false} {
			for _, sh := range shapes {
				if sh.write != wantWrite {
					continue
				}
				f, ok := files[sh.file]
				if !ok {
					var err error
					if f, err = st.Open(sh.file, backend.OpenCreate); err != nil {
						return 0, err
					}
					files[sh.file] = f
				}
				t0 := time.Now()
				if sh.write {
					for c := 0; c < copies; c++ {
						if _, err := f.WriteAt(buf[:sh.n], sh.off); err != nil {
							return 0, err
						}
					}
				} else if _, err := f.ReadAt(buf[:sh.n], sh.off); err != nil {
					return 0, fmt.Errorf("replaying read %s@%d+%d: %w", sh.file, sh.off, sh.n, err)
				}
				total += time.Since(t0)
			}
		}
		return total, nil
	}
	// The median of five passes on each side: both are memory copies
	// plus, on one side, the routing.
	var viaShard, bare [5]float64
	plainStore := backend.NewMemStore()
	for pass := range viaShard {
		d, err := replay(routed, 1)
		if err != nil {
			return 0, err
		}
		viaShard[pass] = us(d)
		if d, err = replay(plainStore, objReplicas); err != nil {
			return 0, err
		}
		bare[pass] = us(d)
	}
	return (median(viaShard[:]) - median(bare[:])) / float64(len(shapes)), nil
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, rec *recorder, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			ID, Parent uint64
			Layer      string
			Name       string
			StartNs    int64
			EndNs      int64
			Bytes      int64
			ChargedNs  int64  `json:",omitempty"`
			File       string `json:",omitempty"`
			Off        int64  `json:",omitempty"`
		}{s.ID, s.Parent, spanLayerNames[s.Layer], spanNames[s.Name], s.Start, s.End, s.Bytes, s.Charged, rec.fileName(s.File), s.Off}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
