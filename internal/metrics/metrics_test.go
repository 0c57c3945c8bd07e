package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndSnapshot(t *testing.T) {
	r := New()
	r.Add(Encrypt, 10*time.Millisecond)
	r.Add(Encrypt, 5*time.Millisecond)
	r.Add(IO, 35*time.Millisecond)
	r.CountOp()
	r.CountOp()

	b := r.Snapshot()
	if b.Total[Encrypt] != 15*time.Millisecond {
		t.Errorf("Encrypt total = %v", b.Total[Encrypt])
	}
	if b.Count[Encrypt] != 2 || b.Count[IO] != 1 {
		t.Errorf("counts = %v", b.Count)
	}
	if b.Ops != 2 {
		t.Errorf("ops = %d", b.Ops)
	}
	if b.Sum() != 50*time.Millisecond {
		t.Errorf("Sum = %v", b.Sum())
	}
	if got := b.Fraction(IO); got != 0.7 {
		t.Errorf("Fraction(IO) = %v", got)
	}
	if got := b.PerOp(IO); got != 17500*time.Microsecond {
		t.Errorf("PerOp(IO) = %v", got)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Add(Encrypt, time.Second) // must not panic
	r.CountOp()
	r.Reset()
	ran := false
	r.Time(Misc, func() { ran = true })
	if !ran {
		t.Fatalf("Time on nil recorder skipped f")
	}
	r.Stop(IO, r.Start())
	if b := r.Snapshot(); b.Sum() != 0 || b.Ops != 0 {
		t.Fatalf("nil recorder accumulated data")
	}
}

func TestTimeAndStartStop(t *testing.T) {
	r := New()
	r.Time(GetCEKey, func() { time.Sleep(2 * time.Millisecond) })
	start := r.Start()
	time.Sleep(2 * time.Millisecond)
	r.Stop(Decrypt, start)
	b := r.Snapshot()
	if b.Total[GetCEKey] < time.Millisecond {
		t.Errorf("Time did not record: %v", b.Total[GetCEKey])
	}
	if b.Total[Decrypt] < time.Millisecond {
		t.Errorf("Start/Stop did not record: %v", b.Total[Decrypt])
	}
}

func TestReset(t *testing.T) {
	r := New()
	r.Add(Misc, time.Second)
	r.CountOp()
	r.Reset()
	if b := r.Snapshot(); b.Sum() != 0 || b.Ops != 0 {
		t.Fatalf("Reset left data: %+v", b)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add(Encrypt, time.Microsecond)
				r.CountOp()
			}
		}()
	}
	wg.Wait()
	b := r.Snapshot()
	if b.Count[Encrypt] != 3200 || b.Ops != 3200 {
		t.Fatalf("lost updates: count=%d ops=%d", b.Count[Encrypt], b.Ops)
	}
	if b.Total[Encrypt] != 3200*time.Microsecond {
		t.Fatalf("total = %v", b.Total[Encrypt])
	}
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		Encrypt:  "Encrypt",
		Decrypt:  "Decrypt",
		GetCEKey: "GetCEKey",
		IO:       "I/O",
		Misc:     "Misc.",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if got := Category(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown category string = %q", got)
	}
	if len(Categories()) != 5 {
		t.Errorf("Categories() = %v", Categories())
	}
}

func TestBreakdownString(t *testing.T) {
	r := New()
	r.Add(GetCEKey, 80*time.Millisecond)
	r.Add(IO, 20*time.Millisecond)
	s := r.Snapshot().String()
	if !strings.HasPrefix(s, "GetCEKey 80.0%") {
		t.Errorf("String = %q, want GetCEKey first", s)
	}
	if !strings.Contains(s, "I/O 20.0%") {
		t.Errorf("String = %q missing I/O share", s)
	}
}

func TestEmptyBreakdown(t *testing.T) {
	var b Breakdown
	if b.Fraction(IO) != 0 || b.PerOp(IO) != 0 || b.Sum() != 0 {
		t.Fatalf("empty breakdown not zero")
	}
}

func TestEventCounters(t *testing.T) {
	r := New()
	r.CountEvent(SlabHit, 3)
	r.CountEvent(SlabMiss, 1)
	r.CountEvent(WriteRun, 2)
	r.CountEvent(ReadRun, 16)
	b := r.Snapshot()
	want := map[Event]int64{SlabHit: 3, SlabMiss: 1, WriteRun: 2, ReadRun: 16}
	for _, e := range AllEvents() {
		if got := b.Event(e); got != want[e] {
			t.Errorf("%s = %d, want %d", e, got, want[e])
		}
	}
	r.Reset()
	if got := r.Snapshot().Event(SlabHit); got != 0 {
		t.Errorf("after Reset: SlabHit = %d", got)
	}
	// Nil receiver must stay a no-op.
	var nr *Recorder
	nr.CountEvent(ReadRun, 5)
	if got := nr.Snapshot().Event(ReadRun); got != 0 {
		t.Errorf("nil recorder counted: %d", got)
	}
}

func TestEventStrings(t *testing.T) {
	for _, e := range AllEvents() {
		if s := e.String(); s == "" || strings.HasPrefix(s, "Event(") {
			t.Errorf("event %d has no label", int(e))
		}
	}
	if s := Event(99).String(); s != "Event(99)" {
		t.Errorf("unknown event = %q", s)
	}
}
