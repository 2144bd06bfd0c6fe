package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nsf"
)

// deadlineResp builds a scripted StatusDeadlineExceeded response for the
// request payload, with the given stage byte.
func deadlineResp(req []byte, stage byte) []byte {
	return NewResp(Op(req[0]), StatusDeadlineExceeded).U8(stage).Bytes()
}

// TestDeadlineExceededNotResent: a deadline expiry mid-op is ambiguous —
// the server may or may not have executed the write — so the client must
// NOT auto-resend a non-idempotent create, even with retries enabled. A
// busy shed on the very same connection (provably never executed) still
// is resent: the contrast is the point.
func TestDeadlineExceededNotResent(t *testing.T) {
	var creates atomic.Int32
	addr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		switch {
		case Op(payload[0]) == OpOpenDB:
			return openOK(c, payload)
		case creates.Add(1) == 1:
			// First create: the deadline died mid-op. Ambiguous.
			return c.reply(deadlineResp(payload, DeadlineAborted))
		default:
			n := nsf.NewNote(nsf.ClassDocument)
			return c.reply(NewResp(OpCreateNote, StatusOK).Note(n).Bytes())
		}
	})
	c, err := DialOptions(addr, "u", "s", fastOpts()) // retries ON
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	err = db.Create(nsf.NewNote(nsf.ClassDocument))
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("create after deadline expiry: err = %v, want DeadlineError", err)
	}
	if !de.Remote || !de.Ambiguous {
		t.Errorf("DeadlineError = %+v, want Remote and Ambiguous", de)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Error("DeadlineError does not match ErrDeadline")
	}
	if Retryable(err) {
		t.Error("ambiguous deadline expiry classified retryable")
	}
	if got := creates.Load(); got != 1 {
		t.Errorf("server saw %d creates, want 1 (no auto-resend)", got)
	}
	// Contrast: a second create succeeds — the connection is healthy, the
	// client just refused to guess about the first one.
	if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err != nil {
		t.Fatalf("create after deadline error: %v", err)
	}
}

// TestDeadlineRefusedIsUnambiguous: a DeadlineRefused response (the server
// shed the request before executing it) surfaces as a non-ambiguous
// DeadlineError — the caller knows the op never ran.
func TestDeadlineRefusedIsUnambiguous(t *testing.T) {
	addr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		if Op(payload[0]) == OpOpenDB {
			return openOK(c, payload)
		}
		return c.reply(deadlineResp(payload, DeadlineRefused))
	})
	c, err := DialOptions(addr, "u", "s", noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Info()
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlineError", err)
	}
	if !de.Remote || de.Ambiguous {
		t.Errorf("DeadlineError = %+v, want Remote and not Ambiguous", de)
	}
}

// TestBudgetShrinksAcrossFailover: the wire budget a mate receives is the
// time REMAINING, not the original allowance — a 400ms user budget spent
// partly on a slow first mate must arrive at the second mate smaller, so
// failover can never stretch the user's deadline to budget x mates.
func TestBudgetShrinksAcrossFailover(t *testing.T) {
	var b1, b2 atomic.Uint32
	mate1 := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		budget := c.budget
		if Op(payload[0]) == OpOpenDB {
			return openOK(c, payload)
		}
		// First capture only: the breaker cooldown may route later
		// attempts of the same op back here with even less budget.
		b1.CompareAndSwap(0, budget)
		time.Sleep(80 * time.Millisecond) // burn budget before shedding
		return c.reply(busyResp(payload, StateOpen, 5))
	})
	mate2 := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		budget := c.budget
		if Op(payload[0]) == OpOpenDB {
			return openOK(c, payload)
		}
		b2.CompareAndSwap(0, budget)
		return c.reply(busyResp(payload, StateOpen, 5))
	})
	opts := failoverTestOpts()
	opts.Client.OpBudget = 400 * time.Millisecond
	fc, err := DialFailover([]string{mate1, mate2}, "u", "s", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	db.Info() // both mates shed; the op fails — only the budgets matter here
	got1, got2 := b1.Load(), b2.Load()
	if got1 == 0 || got2 == 0 {
		t.Fatalf("budgets not captured: mate1 %d ms, mate2 %d ms", got1, got2)
	}
	if got2 >= got1 {
		t.Errorf("budget did not shrink across failover: mate1 %d ms, mate2 %d ms", got1, got2)
	}
	if got1 > 400 {
		t.Errorf("mate1 budget %d ms exceeds the 400 ms allowance", got1)
	}
}

// TestHedgedReadWinsOverSlowMate: with hedged reads on, a read parked on a
// slow mate is raced against a second mate after the hedge delay; the fast
// response wins, the slow primary is withdrawn in-band, and the caller sees
// fast-mate latency instead of slow-mate latency. Withdrawing the loser
// keeps its connection: no mate is redialed after the hedge wins. The
// hedge ran on the fast mate's own session, so when the slow mate then
// dies, failing over to the fast mate dials nothing new either.
func TestHedgedReadWinsOverSlowMate(t *testing.T) {
	note := nsf.NewNote(nsf.ClassDocument)
	var slowConns sync.Map // server side of each slow-mate connection
	slowAddr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		slowConns.Store(c.Conn, true)
		if Op(payload[0]) == OpOpenDB {
			return openOK(c, payload)
		}
		time.Sleep(500 * time.Millisecond) // the mate everyone waits on
		return c.reply(NewResp(OpGetNote, StatusOK).Note(note).Bytes())
	})
	fastAddr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		switch Op(payload[0]) {
		case OpOpenDB:
			return openOK(c, payload)
		case OpDBInfo:
			return c.reply(NewResp(OpDBInfo, StatusOK).Str("fast").U32(0).U32(0).U32(0).Bytes())
		}
		return c.reply(NewResp(OpGetNote, StatusOK).Note(note).Bytes())
	})
	var dials, fastDials atomic.Int32
	var slowDown atomic.Bool
	opts := failoverTestOpts()
	opts.Client.Dialer = func(network, addr string) (net.Conn, error) {
		if addr == slowAddr && slowDown.Load() {
			return nil, errors.New("slow mate is down")
		}
		dials.Add(1)
		if addr == fastAddr {
			fastDials.Add(1)
		}
		return net.Dial(network, addr)
	}
	opts.Client.OpBudget = 2 * time.Second
	opts.HedgeReads = true
	opts.HedgeDelay = 10 * time.Millisecond
	opts.HedgeRateCap = 1.0
	fc, err := DialFailover([]string{slowAddr, fastAddr}, "u", "s", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	setupDials := dials.Load()
	start := time.Now()
	if _, err := db.Get(note.OID.UNID); err != nil {
		t.Fatalf("hedged get: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("hedged read took %v, want well under the slow mate's 500ms", elapsed)
	}
	st := fc.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Errorf("stats = hedges %d wins %d, want both > 0", st.Hedges, st.HedgeWins)
	}
	// The hedge dials its mate once; a second hedged read reuses both
	// sessions.
	after := dials.Load()
	if after != setupDials+1 {
		t.Errorf("%d dials for one hedged read, want 1 (the fast mate's session)", after-setupDials)
	}
	if _, err := db.Get(note.OID.UNID); err != nil {
		t.Fatalf("second hedged get: %v", err)
	}
	if got := dials.Load(); got != after {
		t.Errorf("%d redials after the hedge won, want none", got-after)
	}
	// The slow mate dies. The next operation fails over to the fast mate
	// and runs on the session the hedge built there.
	slowDown.Store(true)
	slowConns.Range(func(c, _ any) bool {
		c.(net.Conn).Close()
		return true
	})
	if _, err := db.Info(); err != nil {
		t.Fatalf("info after the slow mate died: %v", err)
	}
	if cur, _ := fc.Current(); cur != fastAddr {
		t.Errorf("current mate = %s, want the fast mate %s", cur, fastAddr)
	}
	if got := fastDials.Load(); got != 1 {
		t.Errorf("%d dials to the fast mate, want 1: failover must reuse the hedge's session", got)
	}
}

// TestCancelWithdrawsRequestInBand: cancelling an operation's context sends
// OpCancel for its request and returns at once; the connection stays up,
// the late answer to the withdrawn request is dropped, and the next
// operation runs on the same connection.
func TestCancelWithdrawsRequestInBand(t *testing.T) {
	var cancelsSeen atomic.Int32
	addr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		switch Op(payload[0]) {
		case OpOpenDB:
			return openOK(c, payload)
		case OpGetNote:
			time.Sleep(200 * time.Millisecond) // answered after the caller gave up
		default:
			cancelsSeen.Store(int32(c.cancels))
		}
		return c.reply(NewResp(Op(payload[0]), StatusOK).Note(nsf.NewNote(nsf.ClassDocument)).Bytes())
	})
	var dials atomic.Int32
	o := fastOpts()
	o.Dialer = func(network, addr string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial(network, addr)
	}
	c, err := DialOptions(addr, "u", "s", o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	if _, err := db.with(ctx).Get(nsf.NewUNID()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Get = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("cancelled Get returned after %v, want promptly", elapsed)
	}
	// The script answers the withdrawn Get first; the Create behind it must
	// get its own answer, not that one.
	n := nsf.NewNote(nsf.ClassDocument)
	if err := db.Create(n); err != nil {
		t.Fatalf("create after cancel: %v", err)
	}
	if got := cancelsSeen.Load(); got != 1 {
		t.Errorf("server saw %d OpCancel frames, want 1", got)
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d dials, want 1: cancelling must not cost the connection", got)
	}
}

// TestClientBudgetExpiryPreSend: with the budget already spent, the client
// refuses locally — unambiguous (never sent) — without touching the wire.
func TestClientBudgetExpiryPreSend(t *testing.T) {
	var ops atomic.Int32
	addr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		if Op(payload[0]) == OpOpenDB {
			ops.Add(1)
			return openOK(c, payload)
		}
		ops.Add(1)
		time.Sleep(50 * time.Millisecond)
		return c.reply(busyResp(payload, StateOpen, 50))
	})
	o := fastOpts()
	o.OpBudget = 30 * time.Millisecond
	c, err := DialOptions(addr, "u", "s", o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = db.Info()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want deadline expiry", err)
	}
	// The 30ms budget bounds the whole retry ladder: well under OpTimeout
	// (500ms) and nowhere near budget x retries.
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("budgeted op took %v, budget did not bound retries", elapsed)
	}
}

// TestBudgetAbandonThenRecover: after a client-side budget expiry abandons
// a connection mid-op, the next operation must redial and succeed — one
// stalled exchange must not poison the session.
func TestBudgetAbandonThenRecover(t *testing.T) {
	var slowDone atomic.Bool
	addr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		if Op(payload[0]) == OpOpenDB {
			return openOK(c, payload)
		}
		if slowDone.CompareAndSwap(false, true) {
			time.Sleep(400 * time.Millisecond) // past the budget
		}
		n := nsf.NewNote(nsf.ClassDocument)
		return c.reply(NewResp(OpCreateNote, StatusOK).Note(n).Bytes())
	})
	o := fastOpts()
	o.OpBudget = 80 * time.Millisecond
	c, err := DialOptions(addr, "u", "s", o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err == nil {
		t.Fatal("slow create unexpectedly beat the budget")
	}
	for i := 0; i < 3; i++ {
		if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err != nil {
			t.Fatalf("create %d after budget abandonment: %v", i, err)
		}
	}
}

// TestLocalExpiryOpensBreaker: a LOCAL mid-op budget expiry (our deadline
// cut a stalled mate) counts against that mate's breaker, so the next
// operation runs on a healthy mate instead of feeding the stall another
// budget. The expired op itself still surfaces its ambiguous verdict.
func TestLocalExpiryOpensBreaker(t *testing.T) {
	stalled := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		switch Op(payload[0]) {
		case OpOpenDB:
			return openOK(c, payload)
		case OpCreateNote:
			time.Sleep(5 * time.Second) // never answers within any budget
			return false
		default:
			// Answer bookkeeping ops (the eager placement resolve on
			// OpenDB) promptly so only the data op eats the budget.
			return c.reply(NewResp(Op(payload[0]), StatusError).Str("no").Bytes())
		}
	})
	healthy := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		if Op(payload[0]) == OpOpenDB {
			return openOK(c, payload)
		}
		n := nsf.NewNote(nsf.ClassDocument)
		return c.reply(NewResp(OpCreateNote, StatusOK).Note(n).Bytes())
	})
	opts := failoverTestOpts()
	opts.Client.OpBudget = 100 * time.Millisecond
	opts.FailThreshold = 1 // one eaten budget opens the breaker
	fc, err := DialFailover([]string{stalled, healthy}, "u", "s", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	err = db.Create(nsf.NewNote(nsf.ClassDocument))
	var de *DeadlineError
	if !errors.As(err, &de) || de.Remote || !de.Ambiguous {
		t.Fatalf("create on stalled mate: err = %v, want local ambiguous DeadlineError", err)
	}
	// The next op must land on the healthy mate well inside one budget.
	start := time.Now()
	if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err != nil {
		t.Fatalf("create after breaker: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("post-expiry create took %v — client fed the stalled mate again", elapsed)
	}
}

// TestBudgetFrameRoundTrip pins the frame header encoding: WriteFrame
// prepends exactly [u32 len][u32 id][u32 budget-ms], and ReadFrame hands
// the ID and budget back with the payload untouched.
func TestBudgetFrameRoundTrip(t *testing.T) {
	req := NewEnc(OpDBInfo).U32(7).Bytes()
	var buf bytes.Buffer
	if err := writeFrame(&buf, Header{ID: 42, Budget: 1234}, req); err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(len(req)), 0, 0, 0, 42, 0, 0, 0, 0xD2, 0x04, 0, 0}
	if got := buf.Bytes()[:headerLen]; !bytes.Equal(got, want) {
		t.Fatalf("header = % x, want % x", got, want)
	}
	h, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h != (Header{ID: 42, Budget: 1234}) {
		t.Errorf("header = %+v, want ID 42 budget 1234", h)
	}
	if !bytes.Equal(got, req) {
		t.Errorf("payload corrupted by the frame header")
	}
}
