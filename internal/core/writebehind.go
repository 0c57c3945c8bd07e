package core

import (
	"context"
	"fmt"
)

// Write-behind. A commit that a write triggers on a mount whose window
// has more than one slot runs its CPU half (prepareCommit: key
// derivation and the encode fan-out) on the writer, hands its I/O half
// (landCommit: phases 1–3) to a goroutine, and returns. The writer
// encodes its next segment while the previous one's round trips are in
// flight, so the window is not left idle while it encodes.
//
// The I/O half keeps the segment's exclusive lock from the write that
// triggered it (Go lets another goroutine release a mutex) and releases
// it only when it is done. No reader or writer of that segment sees it
// half committed, and the §2.4 barriers are those of the inline commit.
// Pending blocks were never durable before their commit, so write-behind
// changes only who waits and where an error surfaces:
//
//   - Who waits: Sync, Truncate and Close, which hold opMu exclusively,
//     wait for every I/O half of the handle still in flight before they
//     flush anything.
//   - The bound: at most IOWindow halves are in flight per mount
//     (ioWindow.behind). A writer whose trigger would exceed it waits
//     for one to finish.
//   - Errors: a failed half records its error on the handle before it
//     releases the segment. From then on every WriteAt on the handle
//     returns it, so nothing is staged over a failed segment's full
//     pending set. The next Sync, Truncate or Close reports it and
//     clears it. The failed segment's blocks stay pending, so a retried
//     Sync converges.
//   - Cancellation: a half runs under a cancelable child of the
//     triggering write's ctx (nil meaning Background). A Sync, Truncate
//     or Close whose ctx is dead, or dies while it waits, cancels the
//     halves in flight. What had not landed is then cut exactly as a
//     crash would cut it.
//
// A one-slot window (one backend call at a time, as in the paper's
// serial engine) hands nothing off, as runWindowed runs a one-lane
// batch inline: every commit runs inside the call that triggers it, and
// its error surfaces there. The window's depth alone decides this.

// behindJob is one I/O half in flight.
type behindJob struct {
	cancel context.CancelFunc
	done   chan struct{} // closed once the half has released its segment
}

// commitTriggered runs the commit that writeRun's trigger fired for
// segment si, whose lock the caller holds exclusively, and releases
// that lock: itself once the commit is done, or — on a window of more
// than one slot — through the I/O half it hands off once the CPU half
// is done.
func (f *file) commitTriggered(ctx context.Context, seg *segment, si int64) error {
	c, err := f.prepareCommit(ctx, seg, si, false)
	if err == nil && c != nil {
		if cap(f.fs.iow.sem) > 1 {
			f.handOff(ctx, seg, si, c)
			return nil
		}
		err = f.landCommit(ctx, seg, si, c)
	}
	seg.mu.Unlock()
	return err
}

// handOff starts c, the I/O half of segment si's commit, on its own
// goroutine, which takes over the caller's exclusive hold on seg.mu.
// It first takes a write-behind slot, blocking while the mount has a
// window's worth of halves in flight. That wait holds seg.mu and opMu
// shared, which is safe: a half needs neither, only window slots, which
// always drain.
func (f *file) handOff(ctx context.Context, seg *segment, si int64, c *commitIO) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	job := &behindJob{cancel: cancel, done: make(chan struct{})}
	f.fs.iow.behind <- struct{}{}
	f.stateMu.Lock()
	if f.behind == nil {
		f.behind = make(map[int64]*behindJob)
	}
	f.behind[si] = job
	f.stateMu.Unlock()
	go func() {
		err := f.landCommit(ctx, seg, si, c)
		f.stateMu.Lock()
		delete(f.behind, si)
		if err != nil && f.behindErr == nil {
			f.behindErr = fmt.Errorf("lamassu: write-behind commit of segment %d: %w", si, err)
		}
		f.stateMu.Unlock()
		seg.mu.Unlock()
		cancel()
		<-f.fs.iow.behind
		close(job.done)
	}()
}

// behindFailure returns the error a failed I/O half recorded, if any,
// without clearing it.
func (f *file) behindFailure() error {
	f.stateMu.Lock()
	defer f.stateMu.Unlock()
	return f.behindErr
}

// waitBehind waits for every I/O half of the handle in flight, canceling
// them all if ctx is dead or dies meanwhile, and then returns and clears
// the error the first failed half recorded. The caller holds opMu
// exclusively, so no half starts while it waits.
func (f *file) waitBehind(ctx context.Context) error {
	f.stateMu.Lock()
	jobs := make([]*behindJob, 0, len(f.behind))
	for _, j := range f.behind {
		jobs = append(jobs, j)
	}
	f.stateMu.Unlock()
	if len(jobs) > 0 {
		if ctx != nil {
			stop := context.AfterFunc(ctx, func() {
				for _, j := range jobs {
					j.cancel()
				}
			})
			defer stop()
		}
		for _, j := range jobs {
			<-j.done
		}
	}
	f.stateMu.Lock()
	defer f.stateMu.Unlock()
	err := f.behindErr
	f.behindErr = nil
	return err
}
