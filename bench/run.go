package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	rounds   int // timed rounds per stack
	clients  int
	trace    bool
	sz       sizes
}

// A run is timedRounds rounds of the same fixed op list and reports
// their median; setupRepeats builds of the stack give setup_s its
// median. Both are constants, like the op counts: a run is the same work
// on every commit, and no statistic depends on how fast it went.
const (
	timedRounds  = 5
	setupRepeats = 3
)

// roundStats is what one timed round of one stack measured.
type roundStats struct {
	writeBytes, readBytes, otherBytes int64
	// writeTime (readTime) is the largest, over clients, sum of the
	// durations of the ops charged to writing (reading).
	writeTime, readTime time.Duration
	cpu                 time.Duration            // user+sys over the round's phases
	phaseCPU            map[string]time.Duration // per phase name
	wall                time.Duration
	allocs, allocBytes  uint64 // runtime.MemStats deltas (traced rounds only)
}

func (r roundStats) movedBytes() int64 { return r.writeBytes + r.readBytes + r.otherBytes }

func mibps(b int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(b) / (1 << 20) / d.Seconds()
}

// samples pools per-op durations over all timed rounds of one stack.
type samples struct {
	byKind              [numKinds][]time.Duration
	open, closeW        []time.Duration // bracket calls of streams
	callWrite, callSync []time.Duration // WriteAt / Sync halves of a local-rand write
}

func (s *samples) merge(o *samples) {
	for k := range s.byKind {
		s.byKind[k] = append(s.byKind[k], o.byKind[k]...)
	}
	s.open = append(s.open, o.open...)
	s.closeW = append(s.closeW, o.closeW...)
	s.callWrite = append(s.callWrite, o.callWrite...)
	s.callSync = append(s.callSync, o.callSync...)
}

func (s *samples) sort() {
	for k := range s.byKind {
		sortDurations(s.byKind[k])
	}
	sortDurations(s.open)
	sortDurations(s.closeW)
	sortDurations(s.callWrite)
	sortDurations(s.callSync)
}

// stack is one built env with its clients and everything measured on
// it.
type stack struct {
	env     *env
	clients []*client
	traced  bool
	// passNo counts every pass run on the stack, the warm-up's included;
	// it selects the data version the pass's writes carry.
	passNo int

	rounds    []roundStats
	samples   samples // pooled over all timed rounds
	attempted int64
	failed    int64
	firstErr  error
	spans     []span
	wallTimed time.Duration
}

func newStack(e *env, nclients int, traced bool) (*stack, error) {
	s := &stack{env: e, traced: traced}
	for c := 0; c < nclients; c++ {
		cl, err := e.newClient(c)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

func (s *stack) close() error {
	var first error
	for _, cl := range s.clients {
		if err := cl.close(); err != nil && first == nil {
			first = err
		}
	}
	s.clients = nil
	return first
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clientTally is what one client goroutine measured in one phase.
type clientTally struct {
	writeBytes, readBytes, otherBytes int64
	writeTime, readTime               time.Duration
	samples                           samples
	attempted, failed                 int64
	firstErr                          error
}

// runRound executes one round — env.passes passes over the phases, all
// clients entering each phase together — and keeps what it measured.
// With record false (the warm-up round) the numbers are dropped but
// failures still count.
func (s *stack) runRound(record bool) error {
	e := s.env
	var rs roundStats
	rs.phaseCPU = make(map[string]time.Duration)
	var ms0 runtime.MemStats
	for pass := 0; pass < e.passes; pass++ {
		s.passNo++
		if e.beforePass != nil {
			if err := e.beforePass(); err != nil {
				return fmt.Errorf("%s: preparing pass: %w", e.name, err)
			}
		}
		if pass == 0 {
			runtime.GC()
			if s.traced && record {
				runtime.ReadMemStats(&ms0)
			}
		}
		// Spans are recorded over the phases only, not over the untimed
		// preparation of a pass.
		e.rec.setOn(s.traced && record)
		wall0 := time.Now()
		for _, p := range e.phases {
			tallies := make([]clientTally, len(s.clients))
			cpu0 := cpuTime()
			var wg sync.WaitGroup
			for c := range s.clients {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					s.runClient(c, p.ops[c], &tallies[c])
				}(c)
			}
			wg.Wait()
			cpu := cpuTime() - cpu0
			rs.cpu += cpu
			rs.phaseCPU[p.name] += cpu
			var wt, rt time.Duration
			for i := range tallies {
				t := &tallies[i]
				rs.writeBytes += t.writeBytes
				rs.readBytes += t.readBytes
				rs.otherBytes += t.otherBytes
				wt, rt = max(wt, t.writeTime), max(rt, t.readTime)
				s.attempted += t.attempted
				s.failed += t.failed
				if t.firstErr != nil && s.firstErr == nil {
					s.firstErr = t.firstErr
				}
				if record {
					s.samples.merge(&t.samples)
				}
			}
			rs.writeTime += wt
			rs.readTime += rt
		}
		rs.wall += time.Since(wall0)
		e.rec.setOn(false)
	}
	if s.traced && record {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		rs.allocs, rs.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	}
	if record {
		s.rounds = append(s.rounds, rs)
		s.wallTimed += rs.wall
	}
	return nil
}

// runClient is one closed-loop client: the next op starts when the
// previous one has returned and been checked. The check runs after the
// op's timer has stopped.
func (s *stack) runClient(c int, ops []op, t *clientTally) {
	e := s.env
	cl := s.clients[c]
	bg := context.Background()
	for i := range ops {
		o := &ops[i]
		ctx, sp := e.rec.begin(bg, spanOp, spanName(o.kind))
		var payload []byte
		if o.n > 0 {
			payload = e.payload(o, s.passNo)
		}
		t0 := time.Now()
		got, err := cl.do(ctx, o, payload)
		d := time.Since(t0)
		sp.end(int64(o.n), 0)

		t.attempted++
		if err == nil {
			err = e.verify(o, got, payload)
		}
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("%s client %d op %d (%s file %d off %d len %d): %w",
					e.name, c, i, kindNames[o.kind], o.file, o.off, o.n, err)
			}
		}
		switch o.kind {
		case kWrite:
			t.writeBytes += int64(o.n)
			t.writeTime += d
			if cl.callSync > 0 {
				t.samples.callWrite = append(t.samples.callWrite, cl.callWrite)
				t.samples.callSync = append(t.samples.callSync, cl.callSync)
			}
		case kWriteAux:
			t.writeTime += d
			if o.aux == auxOpen {
				t.samples.open = append(t.samples.open, d)
			} else {
				t.samples.closeW = append(t.samples.closeW, d)
			}
		case kRead:
			t.readBytes += int64(o.n)
			t.readTime += d
		case kReadAux:
			t.readTime += d
			if o.aux == auxOpen {
				t.samples.open = append(t.samples.open, d)
			}
		default:
			t.otherBytes += int64(o.n)
		}
		t.samples.byKind[o.kind] = append(t.samples.byKind[o.kind], d)
	}
}

// medianOf returns the median over rounds of a per-round figure.
func medianOf(rounds []roundStats, f func(roundStats) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, rs := range rounds {
		xs[i] = f(rs)
	}
	return median(xs)
}

// verify checks what an op returned against the generator's source:
// want is this round's version of the op's range, which a streaming or
// object workload has just written; local-rand keeps a model instead.
func (e *env) verify(o *op, got, want []byte) error {
	switch o.kind {
	case kWrite:
		if e.model != nil {
			copy(e.model[o.file][o.off:], want)
		}
	case kRead, kRangeGet:
		if e.model != nil {
			want = e.model[o.file][o.off : o.off+int64(o.n)]
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("read returned %d bytes that differ from the source", len(got))
		}
	case kStat:
		if got == nil { // in-process twin: StatCtx already returned the size
			return nil
		}
		var st struct {
			Size int64 `json:"size"`
		}
		if err := json.Unmarshal(got, &st); err != nil {
			return fmt.Errorf("stat body: %w", err)
		}
		if st.Size != int64(o.n) {
			return fmt.Errorf("stat size %d, want %d", st.Size, o.n)
		}
	case kList:
		if got == nil {
			return nil
		}
		var page struct {
			Entries []struct {
				Name string `json:"name"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(got, &page); err != nil {
			return fmt.Errorf("list body: %w", err)
		}
		if want := len(e.names) / len(e.phases[0].ops); len(page.Entries) != want {
			return fmt.Errorf("list returned %d entries, want %d", len(page.Entries), want)
		}
	}
	return nil
}
