package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/nsf"
	"repro/internal/wire"
)

// TestBudgetExpiryReleasesSlotAndStaysResponsive: a budgeted scan whose
// deadline dies inside the server must come back as a typed deadline error
// (not a hang, not a generic failure), release its admission slot, and
// leave the server immediately serviceable — a write right behind it
// completes promptly and the health counters record the expiry.
func TestBudgetExpiryReleasesSlotAndStaysResponsive(t *testing.T) {
	// The hook burns any budgeted scan's entire budget before dispatch, so
	// the server's own deadline check fires deterministically.
	s, addr := newHookServer(t, Options{}, func(_ context.Context, op wire.Op, budget time.Duration) {
		if op == wire.OpScan && budget > 0 {
			time.Sleep(budget + 20*time.Millisecond)
		}
	})

	opts := fastClientOpts()
	opts.OpBudget = 50 * time.Millisecond
	c, err := wire.DialOptions(addr, "ada", "ada-pw", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("doc %d", i))
		if err := db.Create(n); err != nil {
			t.Fatal(err)
		}
	}

	_, err = db.ScanPage(wire.ScanOptions{}, nil)
	var de *wire.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("budget-starved scan returned %v, want DeadlineError", err)
	}
	if !de.Remote {
		t.Errorf("DeadlineError = %+v, want Remote (the server's verdict)", de)
	}

	// The slot must be free and the server responsive: an unbudgeted
	// client completes a write promptly.
	c2, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	db2, err := c2.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "after-expiry")
	if err := db2.Create(n); err != nil {
		t.Fatalf("write after deadline expiry: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("write after expiry took %v — slot not released promptly", elapsed)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		h := s.Health()
		if h.InFlight == 0 {
			if h.DeadlineSheds+h.DeadlineAborts == 0 {
				t.Errorf("health = %+v, want a deadline shed or abort recorded", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight count stuck at %d after deadline expiry", h.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadlineAwareAdmissionShedsDoomedRequests: a request whose budget
// cannot survive the admission queue is refused up front (DeadlineRefused,
// never executed) instead of queueing to die — and the refusal is counted
// separately from load sheds.
func TestDeadlineAwareAdmissionShedsDoomedRequests(t *testing.T) {
	block := make(chan struct{})
	// One execution slot, held by a slow unbudgeted op; the budgeted op
	// behind it cannot survive the queue estimate.
	s, addr := newHookServer(t, Options{MaxInFlight: 1, AdmitWait: 300 * time.Millisecond},
		func(_ context.Context, op wire.Op, budget time.Duration) {
			if op == wire.OpDBInfo && budget == 0 {
				<-block
			}
		})

	slow, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	sdb, err := slow.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	// Open the budgeted client's handle while the slot is still free — only
	// the Info below should contend with the parked op.
	opts := fastClientOpts()
	opts.OpBudget = 30 * time.Millisecond // cannot survive a 300ms admit wait
	c, err := wire.DialOptions(addr, "ada", "ada-pw", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}

	infoDone := make(chan struct{})
	go func() { sdb.Info(); close(infoDone) }() // parks in the hook, holding the slot

	// Wait until the slot is actually held.
	for i := 0; s.admission.inflight.Load() == 0 && i < 400; i++ {
		time.Sleep(5 * time.Millisecond)
	}

	_, err = db.Info()
	var de *wire.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("doomed request returned %v, want DeadlineError", err)
	}
	if de.Ambiguous {
		t.Errorf("DeadlineError = %+v: a pre-execution refusal must be unambiguous", de)
	}
	if sheds := s.admission.deadlineSheds.Load(); sheds == 0 {
		t.Error("deadline shed not counted")
	}
	close(block) // release the parked op before tearing down
	<-infoDone
}
