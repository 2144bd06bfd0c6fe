package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/retry"
)

// protocolVersion is negotiated in the hello exchange. Version 2 replaced
// the one-shot view/search reads with paginated bulk ops (and added OpScan);
// version 3 dropped the mesh link debounce and added ship counters to the
// mesh admin encodings. Each change altered encodings in place, so older
// peers are refused outright rather than silently misparsed.
const protocolVersion = 3

// Options tune a client's fault tolerance. The zero value gets production
// defaults; see the field comments.
type Options struct {
	// DialTimeout bounds connection establishment (default 10s).
	DialTimeout time.Duration
	// OpTimeout bounds one request/response round trip; no wire operation
	// can block past it (default 30s).
	OpTimeout time.Duration
	// MaxRetries is how many times a retryable, idempotent operation is
	// re-attempted after the first failure (default 4). Negative disables
	// retries entirely.
	MaxRetries int
	// BackoffBase is the first retry delay; each retry doubles it up to
	// BackoffMax, with ±50% jitter (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Jitter seeds the backoff jitter; nil uses an unseeded source. Tests
	// pass a seeded source for reproducible schedules.
	Jitter *rand.Rand
	// OpBudget, when positive, gives every operation an end-to-end time
	// budget: the WHOLE operation — all retries, backoff sleeps, and
	// reconnects included — must finish within it. The remaining budget is
	// carried to the server in an OpBudget envelope (shrinking on every
	// attempt, since the deadline is absolute client-side), so the server
	// stops working the moment the caller's patience is spent instead of
	// finishing results nobody will read. Zero disables budgets; OpTimeout
	// still bounds each individual round trip either way.
	OpBudget time.Duration
	// ProbeTimeout bounds the pre-auth availability/resolve probes issued
	// through this client's options (default 2s). Probes are how failover
	// clients notice drained or stalled mates, so they must never inherit
	// the much larger OpTimeout.
	ProbeTimeout time.Duration
	// Dialer replaces the TCP dialer, e.g. with a faultnet.Net.Dial for
	// fault-injection tests. nil dials plain TCP with DialTimeout.
	Dialer func(network, addr string) (net.Conn, error)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Jitter == nil {
		o.Jitter = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = DefaultProbeTimeout
	}
	return o
}

// Client is an authenticated connection to a server. Requests are
// serialized; one Client supports concurrent callers. The client survives
// transport faults: every operation runs under a deadline, retryable
// failures of idempotent operations are retried with exponential backoff,
// and a broken connection is transparently redialed, re-authenticated, and
// its RemoteDB handles re-opened.
type Client struct {
	mu     sync.Mutex
	opts   Options
	addr   string
	user   string
	secret string

	conn   net.Conn
	broken bool
	closed bool
	// dbs are the live remote handles to rebind after a reconnect.
	dbs map[*RemoteDB]struct{}

	// opDeadline is the absolute deadline of the operation in flight (zero:
	// none). It is stamped by whoever owns the budget — withRetry from
	// Options.OpBudget, or a FailoverClient spreading one user budget across
	// mates via setOpDeadline — and every retry, backoff sleep, and wire
	// envelope shrinks against it.
	opDeadline time.Time
	// budgetOwned marks that withRetry stamped opDeadline itself (vs
	// adopting one from a failover client) and must clear it on return.
	budgetOwned bool

	// abandoned and liveConn support CancelInflight: severing an in-flight
	// round trip from OUTSIDE the client lock (the lock is held for the
	// whole op, so a hedge that won elsewhere could never take it).
	abandoned atomic.Bool
	liveConn  atomic.Value // connBox

	// putKey names this client's pipelined-put session; putSeq numbers its
	// batched operations. The server remembers, per (user, key, database),
	// the highest sequence it has durably applied, so a batch re-sent after
	// a reconnect skips the already-applied prefix — exactly-once retry
	// without per-operation acks.
	putKey string
	putSeq uint64
}

// Dial connects and authenticates with default fault-tolerance options.
func Dial(addr, user, secret string) (*Client, error) {
	return DialOptions(addr, user, secret, Options{})
}

// DialOptions connects and authenticates with explicit options. The
// initial dial itself is retried like any idempotent operation, so a
// server momentarily restarting does not fail the caller.
func DialOptions(addr, user, secret string, opts Options) (*Client, error) {
	c := &Client{
		opts:   opts.withDefaults(),
		addr:   addr,
		user:   user,
		secret: secret,
		dbs:    make(map[*RemoteDB]struct{}),
		putKey: nsf.NewUNID().String(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for attempt := 0; ; attempt++ {
		if err = c.reconnectLocked(); err == nil {
			return c, nil
		}
		if !Retryable(err) || attempt >= c.opts.MaxRetries {
			return nil, err
		}
		c.backoffLocked(attempt)
	}
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// User returns the authenticated user name.
func (c *Client) User() string { return c.user }

// connBox wraps the live connection for atomic.Value (which cannot hold a
// bare nil interface).
type connBox struct{ conn net.Conn }

// setOpDeadline adopts an absolute deadline for the next operations on
// this client. A failover client uses it to spread ONE user budget across
// mates: the deadline is set before each hop, so each hop's wire envelope
// carries only what remains. Zero clears it.
func (c *Client) setOpDeadline(t time.Time) {
	c.mu.Lock()
	c.opDeadline = t
	c.budgetOwned = false
	c.mu.Unlock()
}

// CancelInflight severs whatever round trip this client currently has in
// flight, without taking the client lock (the in-flight op holds it). The
// op fails with ErrAbandoned — a result nobody is waiting for anymore —
// which callers must treat as neither retryable nor the mate's fault. It
// is how a hedged read cancels the loser.
func (c *Client) CancelInflight() {
	c.abandoned.Store(true)
	if box, ok := c.liveConn.Load().(connBox); ok && box.conn != nil {
		box.conn.Close()
	}
}

// budgetLeftLocked returns the time remaining on the active deadline, or
// (0, false) when no deadline is set.
func (c *Client) budgetLeftLocked() (time.Duration, bool) {
	if c.opDeadline.IsZero() {
		return 0, false
	}
	return time.Until(c.opDeadline), true
}

// breakLocked abandons the current connection: it is closed immediately
// (never leaked) and the next operation redials.
func (c *Client) breakLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.broken = true
}

// backoffLocked sleeps the exponential-backoff delay for a retry attempt
// (0-based), with ±50% jitter so synchronized clients don't stampede a
// recovering server. An active deadline caps the sleep: burning the whole
// remaining budget inside a backoff would guarantee the retry dies.
func (c *Client) backoffLocked(attempt int) {
	d := retry.Backoff{Base: c.opts.BackoffBase, Max: c.opts.BackoffMax, Rand: c.opts.Jitter}.Delay(attempt)
	if rem, ok := c.budgetLeftLocked(); ok {
		if rem <= 0 {
			return
		}
		if d > rem {
			d = rem
		}
	}
	time.Sleep(d)
}

// reconnectLocked dials, authenticates, and re-opens every registered
// remote handle. On return without error the connection is usable.
func (c *Client) reconnectLocked() error {
	c.breakLocked()
	dial := c.opts.Dialer
	if dial == nil {
		dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, c.opts.DialTimeout)
		}
	}
	conn, err := dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.liveConn.Store(connBox{conn: conn})
	c.broken = false
	hello := NewEnc(OpHello).U32(protocolVersion).Str(c.user).Str(c.secret)
	_, err = c.doLocked(OpHello, hello)
	hello.Release()
	if err != nil {
		c.breakLocked()
		return err
	}
	for db := range c.dbs {
		if err := c.openLocked(db); err != nil {
			var se *ServerError
			var wme *WrongMateError
			if errors.As(err, &se) || errors.As(err, &wme) {
				// The database vanished server-side or moved to another
				// mate; poison only this handle, the session itself is
				// healthy. A failover client turns the poisoned redirect
				// into a re-route on the handle's next use.
				db.stale = err
				continue
			}
			c.breakLocked()
			return err
		}
		db.stale = nil
	}
	return nil
}

// openLocked issues OpOpenDB for db and rebinds its handle fields.
func (c *Client) openLocked(db *RemoteDB) error {
	req := NewEnc(OpOpenDB).Str(db.path)
	d, err := c.doLocked(OpOpenDB, req)
	req.Release()
	if err != nil {
		return err
	}
	handle := d.U32()
	var replica nsf.ReplicaID
	copy(replica[:], d.Raw(8))
	title := d.Str()
	if err := d.Err(); err != nil {
		return err
	}
	db.handle, db.replica, db.title = handle, replica, title
	return nil
}

// doLocked performs one raw round trip on the current connection under the
// per-operation deadline and decodes the response envelope. Any transport
// or framing failure leaves the connection closed and marked broken — a
// half-finished round trip can never be resumed, and an unclosed socket
// would leak.
func (c *Client) doLocked(op Op, req *Enc) (*Dec, error) {
	if c.conn == nil {
		return nil, protoErrorf("no connection")
	}
	connDL := time.Now().Add(c.opts.OpTimeout)
	var budgetMs uint32
	if rem, ok := c.budgetLeftLocked(); ok {
		if rem <= 0 {
			// Budget spent before anything was sent: provably never
			// executed, and the connection is still healthy.
			return nil, &DeadlineError{Op: op}
		}
		// Carry the REMAINING budget (this shrinks across retries and
		// failover hops). The transport deadline gets a small grace past
		// the budget so the server's own StatusDeadlineExceeded response
		// can still arrive and tell us whether the op ran.
		budgetMs = uint32((rem + time.Millisecond - 1) / time.Millisecond)
		if budgetMs == 0 {
			budgetMs = 1
		}
		if bdl := c.opDeadline.Add(deadlineGrace); bdl.Before(connDL) {
			connDL = bdl
		}
	}
	c.conn.SetDeadline(connDL)
	payload, err := c.exchangeLocked(req, budgetMs)
	if err != nil {
		c.breakLocked()
		if _, ok := c.budgetLeftLocked(); ok && !time.Now().Before(c.opDeadline) {
			// The transport fault coincides with budget expiry (typically
			// our own deadline cutting a stalled read): the request may
			// have been received and executed, so the outcome is ambiguous.
			return nil, &DeadlineError{Op: op, Ambiguous: true}
		}
		return nil, err
	}
	c.conn.SetDeadline(time.Time{})
	if len(payload) < 2 {
		c.breakLocked()
		return nil, protoErrorf("short response envelope (%d bytes)", len(payload))
	}
	if payload[0] != byte(op)|respBit {
		c.breakLocked()
		return nil, protoErrorf("response op %#x does not match request %#x", payload[0], byte(op))
	}
	d := NewDec(payload[2:])
	switch payload[1] {
	case StatusOK:
		return d, nil
	case StatusBusy:
		// Admission shed: the request never executed and the connection
		// is healthy. Carry the server's state and availability index so
		// failover logic can redirect.
		state := d.U8()
		idx := d.U32()
		if d.Err() != nil {
			state, idx = StateOpen, 0
		}
		return nil, &BusyError{Op: op, State: state, Availability: int(idx)}
	case StatusWrongMate:
		// Placement redirect: this mate does not home the database and the
		// request never executed. The connection stays healthy; only a
		// failover client (which can switch mates) makes progress on this.
		return nil, decWrongMate(op, d)
	case StatusDeadlineExceeded:
		// The server spent our budget. The stage byte says whether the op
		// provably never ran (refused pre-execution, like a shed) or was
		// aborted mid-flight (ambiguous). The connection stays healthy.
		stage := d.U8()
		if d.Err() != nil {
			stage = DeadlineAborted
		}
		return nil, &DeadlineError{Op: op, Remote: true, Ambiguous: stage == DeadlineAborted}
	default:
		msg := d.Str()
		if d.Err() != nil {
			msg = "unknown server error"
		}
		return nil, &ServerError{Op: op, Msg: msg}
	}
}

// deadlineGrace is how far past an op's budget the transport deadline
// extends: long enough for the server's StatusDeadlineExceeded verdict to
// arrive (it says whether the op ran), short enough that a truly stalled
// mate still fails promptly.
const deadlineGrace = 100 * time.Millisecond

func (c *Client) exchangeLocked(req *Enc, budgetMs uint32) ([]byte, error) {
	var werr error
	if budgetMs > 0 {
		werr = WriteBudgetFrame(c.conn, budgetMs, req.Bytes())
	} else {
		werr = WriteFrame(c.conn, req.Bytes())
	}
	if werr != nil {
		return nil, fmt.Errorf("wire: send: %w", werr)
	}
	payload, err := ReadFrame(c.conn)
	if err != nil {
		return nil, fmt.Errorf("wire: receive: %w", err)
	}
	return payload, nil
}

// withRetry runs fn (which must perform its round trips via doLocked or
// openLocked) under the client lock with retry, backoff, and transparent
// reconnect. Non-idempotent operations are never re-sent once a round trip
// has started — the request may have executed even though its response was
// lost — but a failed *reconnect* retries regardless, since nothing was
// sent. Server-reported errors never retry.
func (c *Client) withRetry(idempotent bool, fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Stamp the operation's absolute deadline if this client owns its own
	// budget and no outer owner (a failover client) stamped one already.
	if c.opDeadline.IsZero() && c.opts.OpBudget > 0 {
		c.opDeadline = time.Now().Add(c.opts.OpBudget)
		c.budgetOwned = true
	}
	if c.budgetOwned {
		defer func() {
			c.opDeadline = time.Time{}
			c.budgetOwned = false
		}()
	}
	// A cancel aimed at a PREVIOUS op (hedge raced our completion) must not
	// poison this one; in-flight cancels are caught after fn below.
	c.abandoned.Store(false)
	for attempt := 0; ; attempt++ {
		if c.closed {
			return ErrClosed
		}
		if rem, ok := c.budgetLeftLocked(); ok && rem <= 0 && attempt > 0 {
			// Out of budget between attempts. Every prior attempt ended in
			// a provably-not-executed state (shed, refused, or a transport
			// fault on an idempotent op), so this expiry is unambiguous.
			return &DeadlineError{}
		}
		if c.conn == nil || c.broken {
			if err := c.reconnectLocked(); err != nil {
				if c.abandoned.Swap(false) {
					return ErrAbandoned
				}
				if !Retryable(err) || attempt >= c.opts.MaxRetries {
					return err
				}
				c.backoffLocked(attempt)
				continue
			}
		}
		err := fn()
		if c.abandoned.Swap(false) && err != nil {
			// CancelInflight severed this round trip: the caller (a hedged
			// read that won elsewhere) will discard whatever we return, and
			// the mate did nothing wrong. Surface the sentinel instead of a
			// transport fault so failover logic neither retries nor blames.
			return ErrAbandoned
		}
		if err == nil {
			return nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			return err
		}
		var de *DeadlineError
		if errors.As(err, &de) {
			// Never auto-retried: the expired budget is the same budget a
			// retry would run under, and an ambiguous expiry must reach
			// the caller so non-idempotent ops aren't blindly re-sent.
			return err
		}
		var be *BusyError
		if errors.As(err, &be) {
			// A shed request never executed, so re-sending is safe even
			// for non-idempotent operations; back off to let the server
			// recover (a failover client switches mates instead).
			if attempt >= c.opts.MaxRetries {
				return err
			}
			c.backoffLocked(attempt)
			continue
		}
		if !idempotent || !Retryable(err) || attempt >= c.opts.MaxRetries {
			return err
		}
		c.backoffLocked(attempt)
	}
}

// call runs one operation with retry. build constructs the request per
// attempt (remote handles may have been rebound by a reconnect in between).
// The final attempt's request encoder is released back to the pool; earlier
// attempts' encoders (if build made fresh ones) are left to the GC, and a
// fixed request reused across attempts is released exactly once.
func (c *Client) call(op Op, idempotent bool, build func() (*Enc, error)) (*Dec, error) {
	var d *Dec
	var req *Enc
	err := c.withRetry(idempotent, func() error {
		r, berr := build()
		if berr != nil {
			return berr
		}
		req = r
		var derr error
		d, derr = c.doLocked(op, r)
		return derr
	})
	if req != nil {
		req.Release()
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// roundTrip runs one idempotent operation with a fixed request body.
func (c *Client) roundTrip(op Op, req *Enc) (*Dec, error) {
	return c.call(op, true, func() (*Enc, error) { return req, nil })
}

// OpenDB opens a database by path on the server, returning a remote handle.
// The handle stays valid across reconnects: it is re-opened automatically.
func (c *Client) OpenDB(path string) (*RemoteDB, error) {
	db := &RemoteDB{c: c, path: path}
	if err := c.withRetry(true, func() error { return c.openLocked(db) }); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.dbs[db] = struct{}{}
	c.mu.Unlock()
	return db, nil
}

// MailDeposit drops a mail note into the server's mail.box for routing.
// Depositing is not idempotent (a re-sent deposit would route twice), so
// it is never retried once sent.
func (c *Client) MailDeposit(n *nsf.Note) error {
	req := NewEnc(OpMailDeposit).Note(n)
	_, err := c.call(OpMailDeposit, false, func() (*Enc, error) { return req, nil })
	return err
}

// RemoteDB is a handle on a database opened over the wire. It implements
// repl.Peer, so a local replicator can sync against it directly.
type RemoteDB struct {
	c       *Client
	path    string
	handle  uint32
	replica nsf.ReplicaID
	title   string
	// stale is set when a reconnect could not re-open this database; every
	// operation fails with it until a later reconnect succeeds.
	stale error
}

var _ repl.Peer = (*RemoteDB)(nil)

// Title returns the remote database title.
func (r *RemoteDB) Title() string { return r.title }

// Path returns the server-side path the database was opened by.
func (r *RemoteDB) Path() string { return r.path }

// Release forgets the handle client-side: it is no longer re-opened after
// reconnects. There is no server-side close; server handles die with the
// connection.
func (r *RemoteDB) Release() {
	r.c.mu.Lock()
	delete(r.c.dbs, r)
	r.c.mu.Unlock()
}

// call runs one operation against this database's current handle.
func (r *RemoteDB) call(op Op, idempotent bool, build func() *Enc) (*Dec, error) {
	return r.c.call(op, idempotent, func() (*Enc, error) {
		if r.stale != nil {
			return nil, r.stale
		}
		return build(), nil
	})
}

// ReplicaID implements repl.Peer. It asks the server rather than trusting
// the value cached at open time, so it both verifies the link is alive and
// notices a database swapped behind the same path.
func (r *RemoteDB) ReplicaID() (nsf.ReplicaID, error) {
	d, err := r.call(OpReplicaID, true, func() *Enc {
		return NewEnc(OpReplicaID).U32(r.handle)
	})
	if err != nil {
		return nsf.ReplicaID{}, err
	}
	var replica nsf.ReplicaID
	copy(replica[:], d.Raw(8))
	if err := d.Err(); err != nil {
		return nsf.ReplicaID{}, err
	}
	r.replica = replica
	return replica, nil
}

// Get fetches a note with the server enforcing the caller's read access.
func (r *RemoteDB) Get(unid nsf.UNID) (*nsf.Note, error) {
	d, err := r.call(OpGetNote, true, func() *Enc {
		return NewEnc(OpGetNote).U32(r.handle).UNID(unid)
	})
	if err != nil {
		return nil, err
	}
	n := d.Note()
	return n, d.Err()
}

// Create stores a new document. Creation assigns server-side identity, so
// it is not idempotent and is never re-sent after a mid-trip failure.
func (r *RemoteDB) Create(n *nsf.Note) error {
	d, err := r.call(OpCreateNote, false, func() *Enc {
		return NewEnc(OpCreateNote).U32(r.handle).Note(n)
	})
	if err != nil {
		return err
	}
	// The server returns the stored note (with assigned IDs and OID).
	stored := d.Note()
	if err := d.Err(); err != nil {
		return err
	}
	*n = *stored
	return nil
}

// Update stores a modified document. A re-sent update advances the version
// twice, so it is not retried after a mid-trip failure.
func (r *RemoteDB) Update(n *nsf.Note) error {
	d, err := r.call(OpUpdateNote, false, func() *Enc {
		return NewEnc(OpUpdateNote).U32(r.handle).Note(n)
	})
	if err != nil {
		return err
	}
	stored := d.Note()
	if err := d.Err(); err != nil {
		return err
	}
	*n = *stored
	return nil
}

// Delete replaces a document with a deletion stub. Deleting a stub again
// leaves it a stub, so Delete retries safely.
func (r *RemoteDB) Delete(unid nsf.UNID) error {
	_, err := r.call(OpDeleteNote, true, func() *Enc {
		return NewEnc(OpDeleteNote).U32(r.handle).UNID(unid)
	})
	return err
}

// PutBatch stores documents create-or-update in input order through one
// round trip and one server admission slot, with the server amortizing the
// WAL force across the batch (group commit). Zero UNIDs are assigned
// client-side so a re-sent batch targets the same documents.
//
// PutBatch is safely retried even though it writes: each batch carries the
// client's pipelined-put session key and a base sequence number, and the
// server's durable cursor for that session makes a replay skip exactly the
// already-applied prefix. It returns how many documents are durably stored
// server-side (counting ones a retry found already applied); on error,
// exactly the first `stored` documents were stored.
func (r *RemoteDB) PutBatch(notes []*nsf.Note) (stored int, err error) {
	if len(notes) == 0 {
		return 0, nil
	}
	for _, n := range notes {
		if n.OID.UNID.IsZero() {
			n.OID.UNID = nsf.NewUNID()
		}
	}
	// Sequence numbers are claimed once per batch, not per attempt, so a
	// retry re-sends the same (key, base) and dedups server-side.
	r.c.mu.Lock()
	base := r.c.putSeq + 1
	r.c.putSeq += uint64(len(notes))
	key := r.c.putKey
	r.c.mu.Unlock()
	d, err := r.call(OpPutBatch, true, func() *Enc {
		req := NewEnc(OpPutBatch).U32(r.handle).Str(key).U64(base).
			U32(uint32(len(notes)))
		for _, n := range notes {
			req.Note(n)
		}
		return req
	})
	if err != nil {
		return 0, err
	}
	d.U64() // cursor: advisory, implied by applied+skipped
	applied := int(d.U32())
	skipped := int(d.U32())
	ok := d.U8()
	var msg string
	if ok == 0 {
		msg = d.Str()
	}
	if derr := d.Err(); derr != nil {
		return 0, derr
	}
	stored = skipped + applied
	if ok == 0 {
		return stored, &ServerError{Op: OpPutBatch, Msg: msg}
	}
	return stored, nil
}

// DBInfo describes a remote database.
type DBInfo struct {
	Title string
	Notes int
	Pages int
	Views []string
}

// Info fetches the remote database's statistics and view list.
func (r *RemoteDB) Info() (DBInfo, error) {
	d, err := r.call(OpDBInfo, true, func() *Enc {
		return NewEnc(OpDBInfo).U32(r.handle)
	})
	if err != nil {
		return DBInfo{}, err
	}
	info := DBInfo{
		Title: d.Str(),
		Notes: int(d.U32()),
		Pages: int(d.U32()),
	}
	count := int(d.U32())
	for i := 0; i < count && d.Err() == nil; i++ {
		info.Views = append(info.Views, d.Str())
	}
	return info, d.Err()
}

// Summaries implements repl.Peer. Listing versions writes nothing, so it
// retries safely.
func (r *RemoteDB) Summaries(since nsf.Timestamp, formulaSrc string) ([]repl.Summary, nsf.Timestamp, error) {
	d, err := r.call(OpSummaries, true, func() *Enc {
		return NewEnc(OpSummaries).U32(r.handle).U64(uint64(since)).Str(formulaSrc)
	})
	if err != nil {
		return nil, 0, err
	}
	now := nsf.Timestamp(d.U64())
	count := d.U32()
	// A summary encodes to 33 fixed bytes; clamp the preallocation to what
	// the payload could actually hold so a corrupt count can't demand
	// gigabytes up front.
	out := make([]repl.Summary, 0, d.Cap(count, 33))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		out = append(out, d.Summary())
	}
	return out, now, d.Err()
}

// Fetch implements repl.Peer.
func (r *RemoteDB) Fetch(unids []nsf.UNID) ([]*nsf.Note, error) {
	d, err := r.call(OpFetch, true, func() *Enc {
		req := NewEnc(OpFetch).U32(r.handle).U32(uint32(len(unids)))
		for _, u := range unids {
			req.UNID(u)
		}
		return req
	})
	if err != nil {
		return nil, err
	}
	count := d.U32()
	// Clamp the count-sized preallocation: an encoded note is at least a
	// one-byte length prefix plus a byte of body.
	out := make([]*nsf.Note, 0, d.Cap(count, 2))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		out = append(out, d.Note())
	}
	return out, d.Err()
}

// Apply implements repl.Peer. Applying a replication batch is idempotent
// by the OID rules (a note already present is skipped; conflict documents
// have deterministic UNIDs), so a batch whose response was lost can be
// re-sent safely.
func (r *RemoteDB) Apply(notes []*nsf.Note) (repl.ApplyStats, error) {
	d, err := r.call(OpApply, true, func() *Enc {
		req := NewEnc(OpApply).U32(r.handle).U32(uint32(len(notes)))
		for _, n := range notes {
			req.Note(n)
		}
		return req
	})
	if err != nil {
		return repl.ApplyStats{}, err
	}
	st := d.ApplyStats()
	return st, d.Err()
}
