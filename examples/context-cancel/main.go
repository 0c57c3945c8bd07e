// Command context-cancel demonstrates the API v2 cancellation
// contract: a large commit is cut short by a context deadline, the
// interrupted file is left in a crash-equivalent state, and recovery
// repairs it — no committed byte lost, and a retry with a live
// context completes the write.
//
// The demo runs against an in-memory store wrapped in a simulated
// NFS-over-GbE link (the paper's Figure 7 configuration), so the
// deadline reliably fires mid-commit: the link's round-trip waits are
// themselves context-interruptible, which is exactly the situation a
// production request handler with a deadline faces.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"lamassu"
	"lamassu/internal/nfssim"
	"lamassu/internal/simclock"
)

func main() {
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		log.Fatal(err)
	}

	// A slow backing store: every operation pays a simulated NFS round
	// trip, so a multi-megabyte commit takes long enough to deadline.
	link := nfssim.GigabitNFS()
	link.RTT, link.WriteRTT, link.Bandwidth = 200*time.Microsecond, 400*time.Microsecond, 50e6
	store := nfssim.New(lamassu.NewMemStorage(), link, simclock.Real{})

	// API v2 construction: functional options.
	m, err := lamassu.New(store, keys, lamassu.WithParallelism(1))
	if err != nil {
		log.Fatal(err)
	}

	// A baseline version of the file, committed durably.
	oldData := bytes.Repeat([]byte{0xA0}, 4<<20)
	if err := m.WriteFile("volume.img", oldData); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline committed: %d MiB\n", len(oldData)>>20)

	// Overwrite it under a deadline far too tight for the slow link.
	newData := bytes.Repeat([]byte{0xB1}, 4<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = m.WriteFileCtx(ctx, "volume.img", newData)
	switch {
	case err == nil:
		fmt.Println("write finished before the deadline (fast machine); nothing to recover")
		return
	case errors.Is(err, lamassu.ErrCanceled) && errors.Is(err, context.DeadlineExceeded):
		fmt.Printf("write canceled by deadline after %v\n", time.Since(start).Round(time.Millisecond))
		var pe *lamassu.PathError
		if errors.As(err, &pe) {
			fmt.Printf("  typed error: op=%q path=%q\n", pe.Op, pe.Path)
		}
	default:
		log.Fatalf("unexpected error: %v", err)
	}

	// The interrupted commit is a crash-equivalent state: recover it.
	stats, err := m.Recover("volume.img")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d segments scanned, %d repaired\n", stats.Segments, stats.Repaired)
	rep, err := m.Check("volume.img")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit clean: %v (%d data blocks verified)\n", rep.Clean(), rep.DataBlocks)

	// Retry without a deadline: the write completes and verifies.
	if err := m.WriteFile("volume.img", newData); err != nil {
		log.Fatal(err)
	}
	got, err := m.ReadFile("volume.img")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retry complete: content matches = %v\n", bytes.Equal(got, newData))
}
