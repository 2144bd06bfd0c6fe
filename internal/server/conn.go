package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/wire"
)

// connState is one client connection: its authenticated session and the
// requests it has in flight.
type connState struct {
	s    *Server
	conn net.Conn
	user string // set by hello, which runs before any other request is read

	wmu sync.Mutex // serializes response frames

	mu       sync.Mutex // guards the fields below
	handles  map[uint32]*handleState
	nextH    uint32
	inflight map[uint32]context.CancelFunc // by request ID
	wg       sync.WaitGroup                // in-flight requests
	done     chan struct{}                 // closed once the connection ended
}

type handleState struct {
	db   *core.Database
	sess *core.Session
	path string
	// placeVer is the directory placement version this handle last passed
	// a home check against; ops re-verify only when the version moves.
	placeVer uint64
}

// handleConn runs one multiplexed connection, returning once it has ended
// and its last request has finished. Hello, availability and resolve are
// answered inline, OpCancel cancels the named request's context, and every
// other request passes admission control and then runs concurrently with
// the connection's later frames, so one connection carries many requests
// at once and answers them in completion order. Reads and writes run under
// deadlines so a stalled or malicious peer (half-sent frame, unread
// responses) can never pin the connection forever, and a handler panic
// closes only this connection — never the process.
func (s *Server) handleConn(conn net.Conn) {
	c := &connState{s: s, conn: conn, handles: make(map[uint32]*handleState), nextH: 1,
		inflight: make(map[uint32]context.CancelFunc), done: make(chan struct{})}
	c.serve()
	<-c.done
}

// serve is the connection's reader until an admitted request takes the
// goroutine over (see run). The reader whose read fails ends the
// connection: in-flight requests are cancelled and waited for.
func (c *connState) serve() {
	s := c.s
	for {
		c.mu.Lock()
		c.armIdle()
		c.mu.Unlock()
		h, payload, err := wire.ReadFrame(c.conn)
		if err != nil || len(payload) == 0 {
			c.end() // closed, broken, malformed, or idle past the deadline
			return
		}
		budget := time.Duration(h.Budget) * time.Millisecond
		op := wire.Op(payload[0])
		var resp *wire.Enc
		switch {
		case op == wire.OpCancel:
			c.mu.Lock()
			if cancel := c.inflight[h.ID]; cancel != nil {
				cancel()
			}
			c.mu.Unlock()
			continue
		case op == wire.OpAvailability:
			// Probes answer unauthenticated and even while draining, so a
			// failover client can always read the mate's state.
			resp = s.availabilityResp()
		case op == wire.OpResolve:
			// Placement resolves are routing metadata, answered like probes:
			// pre-auth and during drain, so clients can locate a database's
			// home mates even through a mate that is leaving.
			resp = s.resolveResp(wire.NewDec(payload[1:]))
		case s.draining.Load():
			// RESTRICTED: refuse new sessions outright, shed everything
			// else with a busy response that says "go to a mate".
			if op == wire.OpHello {
				resp = fail(op, errors.New("server RESTRICTED (draining)"))
			} else {
				resp = s.busyResp(op)
			}
		case op == wire.OpHello:
			// Authentication stays cheap and is never shed: a loaded
			// server still answers hello so the client can read busy
			// responses (with the index) and redirect. It runs inline, so
			// the session is authenticated before the next frame is read.
			resp = c.safeDispatch(context.Background(), op, budget, wire.NewDec(payload[1:]))
		case c.user == "":
			resp = fail(op, errors.New("not authenticated"))
		default:
			switch s.admission.admit(budget) {
			case admitShed:
				resp = s.busyResp(op)
			case admitDeadline:
				// The carried budget cannot survive the queue: refuse now,
				// provably before execution, so the client knows a retry
				// elsewhere is safe.
				resp = deadlineResp(op, wire.DeadlineRefused)
			default:
				c.run(h.ID, op, budget, payload[1:])
				return
			}
		}
		if resp == nil || !c.reply(h.ID, resp) {
			c.end() // handler panicked or the peer stopped reading
			return
		}
	}
}

// end tears the connection down: in-flight writes fail fast instead of
// blocking, running requests are cancelled, and once they finish
// handleConn returns.
func (c *connState) end() {
	c.conn.Close()
	c.mu.Lock()
	for _, cancel := range c.inflight {
		cancel()
	}
	c.mu.Unlock()
	c.wg.Wait()
	close(c.done)
}

// armIdle sets the read deadline for the next frame (c.mu held): the idle
// timeout applies only while nothing is in flight, so a long request never
// makes its own connection look idle.
func (c *connState) armIdle() {
	if idle := c.s.opts.IdleTimeout; idle > 0 {
		if len(c.inflight) == 0 {
			c.conn.SetReadDeadline(time.Now().Add(idle))
		} else {
			c.conn.SetReadDeadline(time.Time{})
		}
	}
}

// run executes one admitted request on the reading goroutine, after
// handing the reading to a fresh serve goroutine: the request starts work
// at once instead of waiting to be scheduled (handing it to a new
// goroutine instead cost the ingest benchmark's replica lag about a
// third). The request is registered before the next frame is read, so an
// OpCancel for it always finds it; its carried budget becomes its context
// deadline.
func (c *connState) run(id uint32, op wire.Op, budget time.Duration, body []byte) {
	var ctx context.Context
	var cancel context.CancelFunc
	if budget > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), budget)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	c.mu.Lock()
	c.inflight[id] = cancel
	c.mu.Unlock()
	c.s.admission.dispatched.Add(1)
	c.wg.Add(1)
	defer c.wg.Done()
	go c.serve()
	start := time.Now()
	resp := c.safeDispatch(ctx, op, budget, wire.NewDec(body))
	c.s.admission.release(time.Since(start))
	switch {
	case resp == nil:
		c.conn.Close() // handler panicked; drop only this connection
	case ctx.Err() == context.Canceled:
		resp.Release() // the client stopped waiting: nobody reads it
	case !c.reply(id, resp):
		c.conn.Close()
	}
	cancel()
	c.mu.Lock()
	delete(c.inflight, id)
	c.armIdle()
	c.mu.Unlock()
}

// reply writes one response frame echoing the request ID, under the
// connection's write lock, and releases the encoder.
func (c *connState) reply(id uint32, resp *wire.Enc) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.s.opts.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.s.opts.WriteTimeout))
	}
	err := resp.WriteFrame(c.conn, wire.Header{ID: id})
	resp.Release()
	return err == nil
}

// safeDispatch runs dispatch with panic recovery: a panicking handler is
// logged and counted, and the connection is closed by returning nil — the
// rest of the server keeps serving. The response for a half-executed
// request is unknowable, so nothing is written.
func (c *connState) safeDispatch(ctx context.Context, op wire.Op, budget time.Duration, d *wire.Dec) (resp *wire.Enc) {
	defer func() {
		if r := recover(); r != nil {
			c.s.admission.panics.Add(1)
			c.s.logf(LogHealth, "panic in %#x handler (user %q): %v", byte(op), c.user, r)
			resp = nil
		}
	}()
	// Long-running handlers check ctx cooperatively and stop working the
	// moment the caller's patience is provably spent or the request is
	// withdrawn. The deadline clock starts before the test hook, so
	// injected dispatch delays consume budget exactly like real ones.
	if hook := c.s.testPreDispatch; hook != nil {
		hook(ctx, op, budget)
	}
	return c.dispatch(ctx, op, d)
}

// fail builds an error response.
func fail(op wire.Op, err error) *wire.Enc {
	return wire.NewResp(op, wire.StatusError).Str(err.Error())
}

// deadlineResp builds a StatusDeadlineExceeded response. stage says
// whether the op provably never ran (wire.DeadlineRefused) or was aborted
// mid-execution and may have partially taken effect (wire.DeadlineAborted)
// — the distinction the client's retry discipline hinges on.
func deadlineResp(op wire.Op, stage byte) *wire.Enc {
	return wire.NewResp(op, wire.StatusDeadlineExceeded).U8(stage)
}

// dbOps are the operations addressed to an open database: their request
// body starts with the handle, which dispatch resolves (with its placement
// check) before calling them.
var dbOps = map[wire.Op]func(c *connState, ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error){
	wire.OpGetNote:    (*connState).getNote,
	wire.OpCreateNote: (*connState).createNote,
	wire.OpUpdateNote: (*connState).updateNote,
	wire.OpDeleteNote: (*connState).deleteNote,
	wire.OpViewRows:   (*connState).viewRows,
	wire.OpSearch:     (*connState).search,
	wire.OpScan:       (*connState).scan,
	wire.OpReplicaID:  (*connState).replicaID,
	wire.OpSummaries:  (*connState).summaries,
	wire.OpFetch:      (*connState).fetch,
	wire.OpApply:      (*connState).apply,
	wire.OpDBInfo:     (*connState).dbInfo,
	wire.OpPutBatch:   (*connState).putBatch,
}

func (c *connState) dispatch(ctx context.Context, op wire.Op, d *wire.Dec) *wire.Enc {
	if err := ctx.Err(); err != nil {
		// Spent (or withdrawn) before the handler ran: still provably
		// never executed.
		if err == context.DeadlineExceeded {
			c.s.admission.deadlineSheds.Add(1)
		}
		return deadlineResp(op, wire.DeadlineRefused)
	}
	var resp *wire.Enc
	var err error
	if fn, ok := dbOps[op]; ok {
		var hs *handleState
		if hs, err = c.handle(d); err == nil {
			resp, err = fn(c, ctx, hs, d)
		}
	} else {
		switch op {
		case wire.OpHello:
			resp, err = c.hello(d)
		case wire.OpOpenDB:
			resp, err = c.openDB(d)
		case wire.OpMailDeposit:
			resp, err = c.mailDeposit(d)
		case wire.OpMeshStatus:
			resp, err = c.meshStatus(d)
		case wire.OpMeshAdd:
			resp, err = c.meshAdd(d)
		case wire.OpMeshRemove:
			resp, err = c.meshRemove(d)
		default:
			err = fmt.Errorf("unknown operation %#x", byte(op))
		}
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// The handler stopped cooperatively mid-execution: the op may
			// have partially taken effect, and the client must know that.
			c.s.admission.deadlineAborts.Add(1)
			return deadlineResp(op, wire.DeadlineAborted)
		}
		var wm *wrongMateError
		if errors.As(err, &wm) {
			// Placement redirect: not an application error — the body
			// carries the home set so the client can re-route.
			return wm.resp(op)
		}
		return fail(op, err)
	}
	return resp
}

func (c *connState) hello(d *wire.Dec) (*wire.Enc, error) {
	version := d.U32()
	user := d.Str()
	secret := d.Str()
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Every version changed encodings in place (see wire.ProtocolVersion),
	// so other versions are refused rather than misparsed.
	if version != wire.ProtocolVersion {
		return nil, fmt.Errorf("unsupported protocol version %d", version)
	}
	if c.user != "" {
		// Handlers running concurrently read the session's identity.
		return nil, errors.New("already authenticated")
	}
	if !c.s.opts.Directory.Authenticate(user, secret) {
		c.s.logf(LogSession, "failed authentication for %q", user)
		return nil, errors.New("authentication failed")
	}
	c.user = user
	c.s.logf(LogSession, "%s authenticated", user)
	return wire.NewResp(wire.OpHello, wire.StatusOK), nil
}

func (c *connState) openDB(d *wire.Dec) (*wire.Enc, error) {
	path := d.Str()
	if err := d.Err(); err != nil {
		return nil, err
	}
	key, err := cleanDBPath(path)
	if err != nil {
		return nil, err
	}
	// Placement gates the open before existence: a mate that still has the
	// file after a move (or never had it) must redirect, not serve.
	placeVer := c.s.opts.Directory.PlacementVersion()
	if err := c.s.checkHomed(key); err != nil {
		return nil, err
	}
	db, ok := c.s.DB(key)
	if !ok {
		// Only pre-opened databases are reachable remotely; opening
		// arbitrary paths would let clients create databases.
		return nil, fmt.Errorf("no database %q", path)
	}
	sess := db.Session(c.user)
	if sess.Identity().Level == acl.NoAccess {
		return nil, fmt.Errorf("%s has no access to %q", c.user, path)
	}
	c.mu.Lock()
	h := c.nextH
	c.nextH++
	c.handles[h] = &handleState{db: db, sess: sess, path: key, placeVer: placeVer}
	c.mu.Unlock()
	replica := db.ReplicaID()
	return wire.NewResp(wire.OpOpenDB, wire.StatusOK).
		U32(h).Raw(replica[:]).Str(db.Title()), nil
}

func (c *connState) handle(d *wire.Dec) (*handleState, error) {
	h := d.U32()
	c.mu.Lock()
	defer c.mu.Unlock()
	hs, ok := c.handles[h]
	if !ok {
		return nil, fmt.Errorf("bad database handle %d", h)
	}
	// Re-verify placement only when the directory moved something since
	// this handle's last check — the hot path costs one atomic load.
	if v := c.s.opts.Directory.PlacementVersion(); v != hs.placeVer {
		if err := c.s.checkHomed(hs.path); err != nil {
			return nil, err
		}
		hs.placeVer = v
	}
	return hs, nil
}

func (c *connState) getNote(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	unid := d.UNID()
	if err := d.Err(); err != nil {
		return nil, err
	}
	n, err := hs.sess.Get(unid)
	if err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpGetNote, wire.StatusOK).Note(n), nil
}

func (c *connState) createNote(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	n := d.Note()
	if err := d.Err(); err != nil {
		return nil, err
	}
	n.ID = 0
	if err := hs.sess.Create(n); err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpCreateNote, wire.StatusOK).Note(n), nil
}

func (c *connState) updateNote(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	n := d.Note()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := hs.sess.Update(n); err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpUpdateNote, wire.StatusOK).Note(n), nil
}

func (c *connState) deleteNote(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	unid := d.UNID()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := hs.sess.Delete(unid); err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpDeleteNote, wire.StatusOK), nil
}

// replicaID reports the database's replica ID, letting clients re-verify
// replica-set membership on a live connection (e.g. after a reconnect).
func (c *connState) replicaID(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	replica := hs.db.ReplicaID()
	return wire.NewResp(wire.OpReplicaID, wire.StatusOK).Raw(replica[:]), nil
}

// replAccess gates raw replication operations: the caller needs Editor
// access (servers replicate with server identities granted Editor or
// better).
func (c *connState) replAccess(hs *handleState, needWrite bool) error {
	level := hs.sess.Identity().Level
	if needWrite && level < acl.Editor {
		return fmt.Errorf("%s may not replicate changes into this database (level %v)", c.user, level)
	}
	if !needWrite && level < acl.Reader {
		return fmt.Errorf("%s may not read this database (level %v)", c.user, level)
	}
	return nil
}

// replChunk is how many notes/summaries replication handlers process
// between cooperative deadline checks: small enough that an abort lands
// within milliseconds, large enough to amortize the check away.
const replChunk = 256

func (c *connState) summaries(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	since := nsf.Timestamp(d.U64())
	formulaSrc := d.Str()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := c.replAccess(hs, false); err != nil {
		return nil, err
	}
	peer := &repl.LocalPeer{DB: hs.db}
	sums, now, err := peer.Summaries(since, formulaSrc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := wire.NewResp(wire.OpSummaries, wire.StatusOK).U64(uint64(now)).U32(uint32(len(sums)))
	for i, s := range sums {
		if i%replChunk == replChunk-1 {
			if err := ctx.Err(); err != nil {
				resp.Release()
				return nil, err
			}
		}
		resp.Summary(s)
	}
	return resp, nil
}

func (c *connState) fetch(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	count := d.U32()
	// Clamp the count-sized preallocation to what the request could hold
	// (16 bytes per UNID); a corrupt count must not demand gigabytes.
	unids := make([]nsf.UNID, 0, d.Cap(count, 16))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		unids = append(unids, d.UNID())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := c.replAccess(hs, false); err != nil {
		return nil, err
	}
	peer := &repl.LocalPeer{DB: hs.db}
	// Fetch in chunks with a deadline check between them, so a huge pull
	// from an abandoned replicator stops instead of running to the end.
	var notes []*nsf.Note
	for len(unids) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := unids
		if len(chunk) > replChunk {
			chunk = chunk[:replChunk]
		}
		unids = unids[len(chunk):]
		got, err := peer.Fetch(chunk)
		if err != nil {
			return nil, err
		}
		notes = append(notes, got...)
	}
	resp := wire.NewResp(wire.OpFetch, wire.StatusOK).U32(uint32(len(notes)))
	for _, n := range notes {
		resp.Note(n)
	}
	return resp, nil
}

func (c *connState) apply(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	count := d.U32()
	notes := make([]*nsf.Note, 0, d.Cap(count, 2))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		notes = append(notes, d.Note())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := c.replAccess(hs, true); err != nil {
		return nil, err
	}
	peer := &repl.LocalPeer{DB: hs.db, Opts: repl.ApplyOptions{FieldMerge: c.s.opts.FieldMerge}}
	// Apply in chunks with deadline checks between them. A mid-batch abort
	// leaves a prefix applied — safe, because replication applies are
	// idempotent by the OID rules, and the aborted status tells the peer
	// the batch did not complete.
	var stats repl.ApplyStats
	for len(notes) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := notes
		if len(chunk) > replChunk {
			chunk = chunk[:replChunk]
		}
		notes = notes[len(chunk):]
		st, err := peer.Apply(chunk)
		if err != nil {
			return nil, err
		}
		stats.Add(st)
	}
	return wire.NewResp(wire.OpApply, wire.StatusOK).ApplyStats(stats), nil
}

func (c *connState) dbInfo(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	stats := hs.db.Stats()
	views := hs.db.ViewNames()
	resp := wire.NewResp(wire.OpDBInfo, wire.StatusOK).
		Str(hs.db.Title()).
		U32(uint32(stats.Notes)).
		U32(uint32(stats.Pages)).
		U32(uint32(len(views)))
	for _, v := range views {
		resp.Str(v)
	}
	return resp, nil
}

// putBatch stores a pipelined batch of documents through one admission
// slot, deduplicating against the session's durable cursor so a batch
// re-sent after a reconnect applies exactly once. A partial failure is
// reported as StatusOK with ok=0 so the client still learns the cursor
// (how far the batch got) alongside the error.
func (c *connState) putBatch(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	sessKey := d.Str()
	base := d.U64()
	count := int(d.U32())
	notes := make([]*nsf.Note, 0, d.Cap(uint32(count), 2))
	for i := 0; i < count && d.Err() == nil; i++ {
		notes = append(notes, d.Note())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if base == 0 || base+uint64(count) < base {
		return nil, fmt.Errorf("bad batch sequence base %d count %d", base, count)
	}
	// Scope the cursor to (user, client key, database) so neither another
	// user nor another database can collide with this session's sequence.
	key := c.user + "\x00" + sessKey + "\x00" + hs.path
	cursor := c.s.putCursor(key)
	skip := 0
	for skip < len(notes) && base+uint64(skip) <= cursor {
		skip++
	}
	fresh := notes[skip:]
	for _, n := range fresh {
		n.ID = 0 // note IDs are assigned by this server's store
	}
	applied, aerr := hs.sess.PutBatchCtx(ctx, fresh)
	if skip+applied > 0 {
		if last := base + uint64(skip+applied) - 1; last > cursor {
			cursor = last
			c.s.advancePutCursor(key, last)
		}
	}
	if aerr != nil && errors.Is(aerr, context.DeadlineExceeded) {
		// Budget spent mid-batch: the applied prefix is durable and the
		// cursor above already covers it, so the client's re-sent batch
		// (same key and base) dedups exactly — the aborted status merely
		// tells it this attempt did not finish.
		return nil, aerr
	}
	resp := wire.NewResp(wire.OpPutBatch, wire.StatusOK).
		U64(cursor).U32(uint32(applied)).U32(uint32(skip))
	if aerr != nil {
		resp.U8(0).Str(aerr.Error())
	} else {
		resp.U8(1)
	}
	return resp, nil
}

func (c *connState) mailDeposit(d *wire.Dec) (*wire.Enc, error) {
	n := d.Note()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := c.s.router.Deposit(n); err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpMailDeposit, wire.StatusOK), nil
}

// meshFor returns the running mesh scheduler or a clean error when the
// mesh task is not enabled on this server.
func (c *connState) meshFor() (*mesh.Mesh, error) {
	m := c.s.Mesh()
	if m == nil {
		return nil, errors.New("mesh not enabled on this server")
	}
	return m, nil
}

func (c *connState) meshStatus(d *wire.Dec) (*wire.Enc, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	m, err := c.meshFor()
	if err != nil {
		return nil, err
	}
	sts := m.Status()
	resp := wire.NewResp(wire.OpMeshStatus, wire.StatusOK).U32(uint32(len(sts)))
	for _, st := range sts {
		resp.MeshLinkStatus(st)
	}
	return resp, nil
}

func (c *connState) meshAdd(d *wire.Dec) (*wire.Enc, error) {
	l := d.MeshLink()
	if err := d.Err(); err != nil {
		return nil, err
	}
	m, err := c.meshFor()
	if err != nil {
		return nil, err
	}
	if err := m.Add(l); err != nil {
		return nil, err
	}
	c.s.logf(LogMesh, "link %s added by %s", l.Name, c.user)
	return wire.NewResp(wire.OpMeshAdd, wire.StatusOK), nil
}

func (c *connState) meshRemove(d *wire.Dec) (*wire.Enc, error) {
	name := d.Str()
	if err := d.Err(); err != nil {
		return nil, err
	}
	m, err := c.meshFor()
	if err != nil {
		return nil, err
	}
	if err := m.Remove(name); err != nil {
		return nil, err
	}
	c.s.logf(LogMesh, "link %s removed by %s", name, c.user)
	return wire.NewResp(wire.OpMeshRemove, wire.StatusOK), nil
}
