package wire

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nsf"
)

// busyResp builds a scripted StatusBusy response for the request in payload.
func busyResp(payload []byte, state byte, avail uint32) []byte {
	return NewResp(Op(payload[0]), StatusBusy).U8(state).U32(avail).Bytes()
}

// TestBusyShedRetriesNonIdempotent: a shed request provably never executed,
// so the client may re-send it even though creates are not idempotent. The
// scripted server sheds the first create and accepts the retry.
func TestBusyShedRetriesNonIdempotent(t *testing.T) {
	var sheds atomic.Int32
	addr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		switch opNum {
		case 0:
			return openOK(c, payload)
		case 1:
			sheds.Add(1)
			return c.reply(busyResp(payload, StateOpen, 55))
		default:
			n := nsf.NewNote(nsf.ClassDocument)
			resp := NewResp(OpCreateNote, StatusOK).Note(n)
			return c.reply(resp.Bytes())
		}
	})
	c, err := DialOptions(addr, "u", "s", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err != nil {
		t.Fatalf("create after shed: %v", err)
	}
	if sheds.Load() != 1 {
		t.Errorf("sheds = %d, want 1", sheds.Load())
	}
}

// TestBusyErrorCarriesAvailability: with retries disabled, a shed surfaces
// as a BusyError carrying the server's state and availability index, is
// recognized by errors.Is(err, ErrServerBusy), and counts as retryable.
func TestBusyErrorCarriesAvailability(t *testing.T) {
	addr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		if opNum == 0 {
			return openOK(c, payload)
		}
		return c.reply(busyResp(payload, StateRestricted, 7))
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
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BusyError", err)
	}
	if !errors.Is(err, ErrServerBusy) {
		t.Error("BusyError is not ErrServerBusy")
	}
	if be.State != StateRestricted || be.Availability != 7 {
		t.Errorf("BusyError = state %d avail %d, want restricted/7", be.State, be.Availability)
	}
	if !Retryable(err) {
		t.Error("shed response not classified retryable")
	}
}

func failoverTestOpts() FailoverOptions {
	o := noRetryOpts()
	return FailoverOptions{Client: o, Cooldown: 50 * time.Millisecond, ProbeTimeout: 200 * time.Millisecond}
}

// TestFailoverBusyRedirect: a mate that sheds everything drives the client
// to the next mate, and the shed's availability index is remembered against
// the busy mate.
func TestFailoverBusyRedirect(t *testing.T) {
	busyAddr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		return c.reply(busyResp(payload, StateOpen, 10))
	})
	okAddr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		return openOK(c, payload)
	})
	fc, err := DialFailover([]string{busyAddr, okAddr}, "u", "s", failoverTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := fc.OpenDB("x.nsf"); err != nil {
		t.Fatalf("open across busy redirect: %v", err)
	}
	if cur, _ := fc.Current(); cur != okAddr {
		t.Errorf("current mate = %s, want the non-busy one %s", cur, okAddr)
	}
	if st := fc.Stats(); st.BusyRedirects == 0 {
		t.Errorf("stats = %+v, want BusyRedirects > 0", st)
	}
}

// TestFailoverDeadMateAtDial: an unreachable first mate must not fail the
// session — the dial falls through to the live one.
func TestFailoverDeadMateAtDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	okAddr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		return openOK(c, payload)
	})
	fc, err := DialFailover([]string{deadAddr, okAddr}, "u", "s", failoverTestOpts())
	if err != nil {
		t.Fatalf("dial with one dead mate: %v", err)
	}
	defer fc.Close()
	if cur, _ := fc.Current(); cur != okAddr {
		t.Errorf("current mate = %s, want %s", cur, okAddr)
	}
}

// TestFailoverMidSessionRebindsHandles: the mate dies between operations on
// an open handle; an idempotent operation retries on the survivor, against a
// handle transparently re-opened there.
func TestFailoverMidSessionRebindsHandles(t *testing.T) {
	dieAddr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		if opNum == 0 {
			return openOK(c, payload)
		}
		return false // kill the connection on the first real op
	})
	var served atomic.Int32
	okAddr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		if Op(payload[0]) == OpOpenDB {
			return openOK(c, payload)
		}
		served.Add(1)
		n := nsf.NewNote(nsf.ClassDocument)
		return c.reply(NewResp(OpGetNote, StatusOK).Note(n).Bytes())
	})
	fc, err := DialFailover([]string{dieAddr, okAddr}, "u", "s", failoverTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(nsf.UNID{}); err != nil {
		t.Fatalf("get across mate death: %v", err)
	}
	if served.Load() == 0 {
		t.Error("survivor never served the retried op")
	}
	if cur, _ := fc.Current(); cur != okAddr {
		t.Errorf("current mate = %s, want survivor %s", cur, okAddr)
	}
	if st := fc.Stats(); st.Failovers == 0 {
		t.Errorf("stats = %+v, want Failovers > 0", st)
	}
}

// TestFailoverOpsDoNotWaitBehindParkedOp: the client lock guards only
// bookkeeping, never a round trip, so one Get parked on a mate holds up
// nobody: a second Get, Stats and Current on the same client each return
// at once.
func TestFailoverOpsDoNotWaitBehindParkedOp(t *testing.T) {
	note := nsf.NewNote(nsf.ClassDocument)
	var parked atomic.Bool
	addr := scriptServer(t, func(c *scriptConn, opNum int, payload []byte) bool {
		switch Op(payload[0]) {
		case OpOpenDB:
			return openOK(c, payload)
		case OpGetNote:
			resp := NewResp(OpGetNote, StatusOK).Note(note).Bytes()
			if parked.CompareAndSwap(false, true) {
				// Answer the first Get late, from the side, so the script
				// goes on serving the requests behind it.
				conn, id := c.Conn, c.id
				go func() {
					time.Sleep(500 * time.Millisecond)
					writeFrame(conn, Header{ID: id}, resp)
				}()
				return true
			}
			return c.reply(resp)
		default:
			return c.reply(NewResp(Op(payload[0]), StatusError).Str("no").Bytes())
		}
	})
	opts := failoverTestOpts()
	opts.Client.OpTimeout = 2 * time.Second
	fc, err := DialFailover([]string{addr}, "u", "s", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	slow := make(chan error, 1)
	go func() {
		_, err := db.Get(note.OID.UNID)
		slow <- err
	}()
	for !parked.Load() {
		time.Sleep(time.Millisecond)
	}
	prompt := func(what string, fn func() error) {
		t.Helper()
		start := time.Now()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("%s took %v behind the parked Get, want under 100ms", what, elapsed)
		}
	}
	prompt("second Get", func() error { _, err := db.Get(note.OID.UNID); return err })
	prompt("Stats", func() error { fc.Stats(); return nil })
	prompt("Current", func() error {
		if cur, ok := fc.Current(); !ok || cur != addr {
			return errors.New("no current mate")
		}
		return nil
	})
	if err := <-slow; err != nil {
		t.Fatalf("parked Get: %v", err)
	}
}
