package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nsf"
	"repro/internal/wire"
)

// TestMuxOutOfOrderResponses: one connection carries two requests at once.
// The first is held in the dispatch hook; the second must be answered while
// the first is still in flight, and each caller must get its own result.
func TestMuxOutOfOrderResponses(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	_, addr := newHookServer(t, Options{}, func(_ context.Context, op wire.Op, _ time.Duration) {
		if op == wire.OpGetNote && held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	})
	// Runs before the server's Close, so a failing run cannot leave the
	// held handler blocking shutdown.
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	opts := fastClientOpts()
	opts.OpTimeout = time.Second
	c, err := wire.DialOptions(addr, "ada", "ada-pw", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*nsf.Note, 2)
	for i := range docs {
		docs[i] = nsf.NewNote(nsf.ClassDocument)
		docs[i].SetText("Subject", fmt.Sprintf("doc-%d", i))
		if err := db.Create(docs[i]); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		subject string
		err     error
	}
	first := make(chan result, 1)
	go func() {
		n, err := db.Get(docs[0].OID.UNID)
		if err != nil {
			first <- result{err: err}
			return
		}
		first <- result{subject: n.Text("Subject")}
	}()
	<-entered // the first Get is now in flight on the connection

	n, err := db.Get(docs[1].OID.UNID)
	if err != nil {
		t.Fatalf("second Get: %v", err)
	}
	if got := n.Text("Subject"); got != "doc-1" {
		t.Errorf("second caller got %q, want doc-1", got)
	}
	select {
	case r := <-first:
		t.Fatalf("held Get finished before it was released: %+v", r)
	default:
	}
	unblock()
	r := <-first
	if r.err != nil || r.subject != "doc-0" {
		t.Errorf("first caller got (%q, %v), want doc-0", r.subject, r.err)
	}
}

// TestCancelReachesRunningHandler: an OpCancel frame cancels the named
// request's context while its handler runs, no response is written for
// it, and the same connection then serves another request — no redial.
func TestCancelReachesRunningHandler(t *testing.T) {
	seen := make(chan error, 1)
	_, addr := newHookServer(t, Options{}, func(ctx context.Context, op wire.Op, _ time.Duration) {
		if op != wire.OpGetNote {
			return
		}
		select {
		case <-ctx.Done():
			seen <- ctx.Err()
		case <-time.After(5 * time.Second):
			seen <- nil
		}
	})
	r := dialRawBatch(t, addr, "ada", "ada-pw", "apps/db.nsf")
	const id = 1000
	req := wire.NewEnc(wire.OpGetNote).U32(r.handle).UNID(nsf.NewUNID())
	if err := req.WriteFrame(r.conn, wire.Header{ID: id}); err != nil {
		t.Fatal(err)
	}
	if err := wire.NewEnc(wire.OpCancel).WriteFrame(r.conn, wire.Header{ID: id}); err != nil {
		t.Fatal(err)
	}
	if err := <-seen; err != context.Canceled {
		t.Fatalf("handler context ended with %v, want context.Canceled", err)
	}
	// roundTrip checks the response ID, so a stray answer to the cancelled
	// request would fail it.
	d := r.roundTrip(wire.NewEnc(wire.OpDBInfo).U32(r.handle), wire.OpDBInfo)
	if title := d.Str(); title != "db" {
		t.Errorf("DBInfo after cancel: title %q, want db", title)
	}
}

// TestConcurrentPutBatchOneClient: two goroutines stream batches through
// one Client. Every document must be stored exactly once — concurrent
// dispatch must never let a later batch's sequence overtake an earlier
// one's and make the server skip it as already applied.
func TestConcurrentPutBatchOneClient(t *testing.T) {
	const workers, batches, per = 2, 50, 8
	s, addr := newHookServer(t, Options{}, nil)
	c, err := wire.Dial(addr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				notes := make([]*nsf.Note, per)
				for i := range notes {
					notes[i] = nsf.NewNote(nsf.ClassDocument)
					notes[i].SetText("Subject", fmt.Sprintf("w%d-b%d-d%d", w, b, i))
				}
				stored, err := db.PutBatch(notes)
				if err == nil && stored != per {
					err = fmt.Errorf("batch %d stored %d of %d", b, stored, per)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	local, _ := s.DB("apps/db.nsf")
	subjects := make(map[string]int)
	local.ScanAll(func(n *nsf.Note) bool {
		subjects[n.Text("Subject")]++
		return true
	})
	if len(subjects) != workers*batches*per {
		t.Errorf("server holds %d distinct documents, want %d", len(subjects), workers*batches*per)
	}
	for subj, n := range subjects {
		if n != 1 {
			t.Errorf("%s stored %d times", subj, n)
		}
	}
}

// TestHelloRefusesOtherVersions: a peer speaking an older protocol version
// is refused at hello rather than misparsed later.
func TestHelloRefusesOtherVersions(t *testing.T) {
	_, addr := newHookServer(t, Options{}, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.NewEnc(wire.OpHello).U32(wire.ProtocolVersion - 1).Str("ada").Str("ada-pw")
	if err := hello.WriteFrame(conn, wire.Header{ID: 1}); err != nil {
		t.Fatal(err)
	}
	_, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) < 2 || payload[1] != wire.StatusError {
		t.Fatalf("version %d hello answered % x, want an error", wire.ProtocolVersion-1, payload)
	}
	if msg := wire.NewDec(payload[2:]).Str(); !strings.Contains(msg, "unsupported protocol version") {
		t.Errorf("refusal %q does not name the version", msg)
	}
}
