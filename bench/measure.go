package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/dedupe"
)

// result is one run of one workload: the record the command prints and
// the result files hold.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Clients   int                    `json:"clients"`
	Rounds    int                    `json:"rounds"`
	TimedS    float64                `json:"timed_s"`
	Samples   map[string]int         `json:"samples"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// atRest is what the leaves hold after the last round.
type atRest struct {
	allocatedBlocks int64 // 4 KiB blocks with any non-zero byte
	totalBlocks     int64
	uniqueBlocks    int64
	scan            time.Duration
}

// leafView returns a store whose files are the bytes leaf i holds at
// rest. A memory leaf is its own view; an object-store leaf is copied
// out of the Memserver, so the scan pays no simulated round trips.
func (e *env) leafView(i int) (backend.Store, error) {
	if len(e.servers) == 0 {
		return e.leaves[i].inner, nil
	}
	ms := e.servers[i]
	view := backend.NewMemStore()
	after := ""
	for {
		keys, more, err := ms.List(nil, after, 1000)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			b, _ := ms.Object(k)
			if err := backend.WriteFile(view, k, b); err != nil {
				return nil, err
			}
			after = k
		}
		if !more {
			return view, nil
		}
	}
}

// scanAtRest runs the downstream deduplicator over every leaf — each
// leaf is its own volume, so R replicas cost R times — and counts the
// blocks a sparse-file-aware store would allocate: striped leaves hold
// their stripes at global offsets, and the holes between them are not
// bytes at rest.
func (e *env) scanAtRest() (atRest, error) {
	var out atRest
	eng, err := dedupe.NewEngine(blockSize)
	if err != nil {
		return out, err
	}
	for i := range e.leaves {
		view, err := e.leafView(i)
		if err != nil {
			return out, err
		}
		t0 := time.Now()
		rep, err := eng.Scan(view)
		out.scan += time.Since(t0)
		if err != nil {
			return out, err
		}
		out.totalBlocks += rep.TotalBlocks
		out.uniqueBlocks += rep.UniqueBlocks
		names, err := view.List()
		if err != nil {
			return out, err
		}
		for _, n := range names {
			b, err := backend.ReadFile(view, n)
			if err != nil {
				return out, err
			}
			out.allocatedBlocks += nonZeroBlocks(b)
		}
	}
	return out, nil
}

func nonZeroBlocks(b []byte) int64 {
	var n int64
	for off := 0; off < len(b); off += blockSize {
		end := min(off+blockSize, len(b))
		for _, x := range b[off:end] {
			if x != 0 {
				n++
				break
			}
		}
	}
	return n
}

// wireBytes is the traffic at the lowest boundary the benchmark can
// see: the object-store transport where there is one, the leaf Store
// API otherwise.
func (e *env) wireBytes() int64 {
	var n int64
	if len(e.servers) > 0 {
		for _, ms := range e.servers {
			st := ms.Stats()
			n += st.BytesIn + st.BytesOut
		}
		return n
	}
	for _, l := range e.leaves {
		c := l.counts()
		n += c.readBytes + c.writeBytes
	}
	return n
}

// finalChecks is the correctness gate after the last round: every file
// audits clean, no multipart upload is left open, no retry budget ran
// out.
func (e *env) finalChecks() []string {
	var problems []string
	// Check reads every block back through the stack, round trips
	// included, so the files are audited a few at a time.
	var mu sync.Mutex
	var wg sync.WaitGroup
	gate := make(chan struct{}, 4) // at most 4 audits in flight
	for _, n := range e.names {
		wg.Add(1)
		gate <- struct{}{}
		go func(n string) {
			defer wg.Done()
			defer func() { <-gate }()
			rep, err := e.mount.Check(n)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				problems = append(problems, fmt.Sprintf("%s: Check(%q): %v", e.name, n, err))
			case !rep.Clean():
				problems = append(problems, fmt.Sprintf("%s: Check(%q) not clean: %+v", e.name, n, rep))
			}
		}(n)
	}
	wg.Wait()
	for i, ms := range e.servers {
		if open := ms.Stats().OpenUploads; open != 0 {
			problems = append(problems, fmt.Sprintf("%s: leaf %d has %d multipart uploads open", e.name, i, open))
		}
	}
	if es := e.mount.EngineStats(); es.RetriesExhausted != 0 {
		problems = append(problems, fmt.Sprintf("%s: %d retry budgets exhausted", e.name, es.RetriesExhausted))
	}
	return problems
}

// runWorkload is the whole of one run: setup (timed, repeated), one
// warm-up round, cfg.rounds timed rounds, the correctness gate, and the
// metrics.
func runWorkload(cfg runConfig) (*result, error) {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Clients: cfg.clients,
		Samples: map[string]int{}, Metrics: map[string]metricValue{}}
	if cfg.trace {
		res.Trace = 1
	}

	// Setup, several times over: its median is setup_s, the last build
	// is the stack the rounds run on.
	plainOpts := stackOpts{seed: cfg.seed, clients: cfg.clients, sz: cfg.sz}
	var setups []float64
	var plainEnv *env
	for i := 0; i < setupRepeats; i++ {
		if plainEnv != nil {
			if err := plainEnv.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		e, err := buildWorkload(cfg.workload, plainOpts)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		plainEnv = e
	}
	defer plainEnv.close()
	plain, err := newStack(plainEnv, cfg.clients, false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	stacks := []*stack{plain}

	// The traced run adds a second, traced stack and runs its rounds in
	// turn with the plain one, so both see the same minutes of the box;
	// wire-objects adds the in-process twin as a third.
	var traced, twin *stack
	if cfg.trace {
		tracedOpts := plainOpts
		tracedOpts.rec = newRecorder()
		te, err := buildWorkload(cfg.workload, tracedOpts)
		if err != nil {
			return nil, fmt.Errorf("setup (traced): %w", err)
		}
		defer te.close()
		if traced, err = newStack(te, cfg.clients, true); err != nil {
			return nil, err
		}
		defer traced.close()
		stacks = append(stacks, traced)
		if cfg.workload == "wire-objects" {
			if twin, err = newTwin(te, tracedOpts); err != nil {
				return nil, err
			}
			defer twin.close()
			defer twin.env.close()
			stacks = append(stacks, twin)
		}
	}

	for _, s := range stacks {
		if err := s.runRound(false); err != nil {
			return nil, err
		}
	}
	var before snapshot
	var sampler *depthSampler
	if traced != nil {
		before = takeSnapshot(traced.env)
		sampler = startDepthSampler(traced.env.mount)
	}
	wire0 := plainEnv.wireBytes()
	start := time.Now()
	for n := 0; n < cfg.rounds; n++ {
		for _, s := range stacks {
			if err := s.runRound(true); err != nil {
				return nil, err
			}
		}
	}
	wire := plainEnv.wireBytes() - wire0
	res.Rounds = cfg.rounds
	res.TimedS = time.Since(start).Seconds()

	// The correctness gate.
	for _, s := range stacks {
		res.Attempted += s.attempted
		res.Failed += s.failed
		if s.firstErr != nil {
			res.Problems = append(res.Problems, s.firstErr.Error())
		}
		res.Problems = append(res.Problems, s.env.finalChecks()...)
	}
	rest, err := plainEnv.scanAtRest()
	if err != nil {
		return nil, fmt.Errorf("scanning leaves: %w", err)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0

	plain.samples.sort()
	res.Samples["write"] = len(plain.samples.byKind[kWrite])
	res.Samples["read"] = len(plain.samples.byKind[kRead])
	if !cfg.trace {
		endToEnd(res, plain, plainEnv, setups, rest, wire)
		return res, nil
	}
	sampler.stop()
	after := takeSnapshot(traced.env)
	traced.spans = traced.env.rec.take()
	traced.samples.sort()
	if twin != nil {
		twin.samples.sort()
	}
	if err := perLayer(res, cfg, plain, traced, twin, before, after, sampler, rest); err != nil {
		return nil, err
	}
	return res, nil
}

// newTwin builds the in-process twin of the traced wire stack: an
// identically configured mount, preloaded alike, driven by the same op
// list through the calls the server's handlers make.
func newTwin(wire *env, o stackOpts) (*stack, error) {
	o.rec = nil
	m, leaf, err := buildWireMount(o)
	if err != nil {
		return nil, err
	}
	e := &env{name: "wire-objects-twin", mount: m, leaves: []*leafStore{leaf},
		src: wire.src, names: wire.names, logical: wire.logical, phases: wire.phases, passes: wire.passes}
	e.closers = append(e.closers, m.Close)
	for i, name := range e.names {
		if err := m.WriteFile(name, e.src[0][i]); err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	e.newClient = func(int) (*client, error) { return twinClient(e, m), nil }
	return newStack(e, o.clients, false)
}

func put(res *result, name, unit string, v float64) {
	res.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func cpuPerGiB(rs roundStats) float64 {
	return rs.cpu.Seconds() / (float64(rs.movedBytes()) / (1 << 30))
}

// endToEnd fills in the end-to-end metrics of an untraced run.
func endToEnd(res *result, s *stack, e *env, setups []float64, rest atRest, wire int64) {
	var moved int64
	for _, rs := range s.rounds {
		moved += rs.movedBytes()
	}
	set := func(name string, v float64) { put(res, name, e2eUnit(name), v) }
	set("write_mibps", medianOf(s.rounds, func(rs roundStats) float64 { return mibps(rs.writeBytes, rs.writeTime) }))
	set("read_mibps", medianOf(s.rounds, func(rs roundStats) float64 { return mibps(rs.readBytes, rs.readTime) }))
	set("write_p50_ms", percentileMs(s.samples.byKind[kWrite], 0.50))
	set("write_p90_ms", percentileMs(s.samples.byKind[kWrite], 0.90))
	set("read_p50_ms", percentileMs(s.samples.byKind[kRead], 0.50))
	set("read_p90_ms", percentileMs(s.samples.byKind[kRead], 0.90))
	set("cpu_s_per_gib", medianOf(s.rounds, cpuPerGiB))
	set("stored_per_logical", float64(rest.allocatedBlocks*blockSize)/float64(e.logical))
	set("dedup_stored_per_logical", float64(rest.uniqueBlocks*blockSize)/float64(e.logical))
	set("wire_bytes_per_logical", float64(wire)/float64(moved))
	set("setup_s", median(setups))
}
