package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/retry"
)

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
	// reconnects included — must finish within it. The budget becomes the
	// operation's context deadline, and every request carries what remains
	// of it in its frame header (shrinking on every attempt, since the
	// deadline is absolute client-side), so the server stops working the
	// moment the caller's patience is spent instead of finishing results
	// nobody will read. Zero disables budgets; OpTimeout still bounds each
	// individual round trip either way.
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

// Client is an authenticated, multiplexed connection to a server. Any
// number of goroutines may issue operations at once: every request carries
// its own ID, responses are matched back by ID in whatever order the server
// finishes them, and no lock is held across a round trip. The client
// survives transport faults: every operation runs under a deadline,
// retryable failures of idempotent operations are retried with exponential
// backoff, and a broken connection is transparently redialed,
// re-authenticated, and its RemoteDB handles re-opened.
type Client struct {
	opts   Options
	addr   string
	user   string
	secret string

	// dialMu makes reconnects single-flight: callers that find the session
	// dead queue here and adopt the session the first of them builds.
	dialMu sync.Mutex

	// mu guards the fields below, every registered handle's binding, and
	// the backoff jitter source.
	mu     sync.Mutex
	sess   *session // nil until the first dial succeeds
	closed bool
	// dbs are the live remote handles to rebind after a reconnect.
	dbs map[*dbHandle]struct{}

	// putMu orders this client's pipelined puts. The server remembers, per
	// (user, putKey, database), the highest sequence it has durably
	// applied, so a batch re-sent after a reconnect skips the
	// already-applied prefix — exactly-once retry without per-operation
	// acks. That cursor only works if batches apply in sequence order, so
	// one batch (with its retries) finishes before the next claims its
	// sequence numbers.
	putMu  sync.Mutex
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
	c := newClient(addr, user, secret, opts)
	ctx := context.Background()
	for attempt := 0; ; attempt++ {
		_, err := c.session(ctx)
		if err == nil {
			return c, nil
		}
		if !Retryable(err) || attempt >= c.opts.MaxRetries {
			return nil, err
		}
		c.backoff(ctx, attempt)
	}
}

// newClient builds a client that has not dialed yet: its first operation
// dials, like a reconnect.
func newClient(addr, user, secret string, opts Options) *Client {
	return &Client{
		opts:   opts.withDefaults(),
		addr:   addr,
		user:   user,
		secret: secret,
		dbs:    make(map[*dbHandle]struct{}),
		putKey: nsf.NewUNID().String(),
	}
}

// Close terminates the connection; operations in flight fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	s := c.sess
	c.sess = nil
	c.mu.Unlock()
	if s != nil {
		s.close()
	}
	return nil
}

// User returns the authenticated user name.
func (c *Client) User() string { return c.user }

// backoff sleeps the exponential-backoff delay for a retry attempt
// (0-based), with ±50% jitter so synchronized clients don't stampede a
// recovering server. The context caps the sleep: burning the whole
// remaining budget inside a backoff would guarantee the retry dies.
func (c *Client) backoff(ctx context.Context, attempt int) {
	c.mu.Lock()
	d := retry.Backoff{Base: c.opts.BackoffBase, Max: c.opts.BackoffMax, Rand: c.opts.Jitter}.Delay(attempt)
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// session returns the live session, redialing if the current one died.
// Redialing is single-flight: it authenticates and re-opens every
// registered remote handle, then publishes the new session and the
// handles' new bindings together, and callers that queued behind it adopt
// its result instead of dialing again.
func (c *Client) session(ctx context.Context) (*session, error) {
	c.mu.Lock()
	old, closed := c.sess, c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if old != nil && old.alive() {
		return old, nil
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	c.mu.Lock()
	cur, closed := c.sess, c.closed
	dbs := make([]*dbHandle, 0, len(c.dbs))
	for h := range c.dbs {
		dbs = append(dbs, h)
	}
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if cur != nil && cur != old && cur.alive() {
		return cur, nil
	}
	if cur != nil {
		cur.close()
	}
	dial := c.opts.Dialer
	if dial == nil {
		dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, c.opts.DialTimeout)
		}
	}
	conn, err := dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	s := newSession(conn, c.opts.OpTimeout)
	hello := NewEnc(OpHello).U32(ProtocolVersion).Str(c.user).Str(c.secret)
	_, err = s.do(ctx, OpHello, hello)
	hello.Release()
	if err != nil {
		s.close()
		return nil, err
	}
	binds := make([]binding, len(dbs))
	for i, h := range dbs {
		b, err := s.open(ctx, h.path)
		if err != nil {
			var se *ServerError
			var wme *WrongMateError
			if !errors.As(err, &se) && !errors.As(err, &wme) {
				s.close()
				return nil, err
			}
			// The database vanished server-side or moved to another mate;
			// poison only this handle, the session itself is healthy. A
			// failover client turns the poisoned redirect into a re-route
			// on the handle's next use.
			b.stale = err
		}
		binds[i] = b
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		s.close()
		return nil, ErrClosed
	}
	for i, h := range dbs {
		h.binding = binds[i]
	}
	c.sess = s
	return s, nil
}

// binding is a remote handle's state on one session.
type binding struct {
	handle  uint32
	replica nsf.ReplicaID
	title   string
	// stale is set when a reconnect could not re-open the database; every
	// operation fails with it until a later reconnect succeeds.
	stale error
}

// open issues OpOpenDB for path on this session.
func (s *session) open(ctx context.Context, path string) (binding, error) {
	req := NewEnc(OpOpenDB).Str(path)
	d, err := s.do(ctx, OpOpenDB, req)
	req.Release()
	if err != nil {
		return binding{}, err
	}
	b := binding{handle: d.U32()}
	copy(b.replica[:], d.Raw(8))
	b.title = d.Str()
	return b, d.Err()
}

// withRetry runs fn against the live session with retry, backoff, and
// transparent reconnect. Non-idempotent operations are never re-sent once a
// round trip has started — the request may have executed even though its
// response was lost — but a failed *reconnect* retries regardless, since
// nothing was sent. Server-reported errors, deadline verdicts and
// cancellation never retry. A ctx without a deadline gets Options.OpBudget.
func (c *Client) withRetry(ctx context.Context, idempotent bool, fn func(ctx context.Context, s *session) error) error {
	if _, ok := ctx.Deadline(); !ok && c.opts.OpBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.OpBudget)
		defer cancel()
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil && attempt > 0 {
			if err == context.DeadlineExceeded {
				// Out of budget between attempts. Every prior attempt ended
				// in a provably-not-executed state (shed, refused, or a
				// transport fault on an idempotent op), so this expiry is
				// unambiguous.
				return &DeadlineError{}
			}
			return err
		}
		s, err := c.session(ctx)
		if err != nil {
			if !Retryable(err) || attempt >= c.opts.MaxRetries {
				return err
			}
			c.backoff(ctx, attempt)
			continue
		}
		err = fn(ctx, s)
		if err == nil {
			return nil
		}
		var se *ServerError
		var de *DeadlineError
		var be *BusyError
		switch {
		case errors.As(err, &se), errors.Is(err, context.Canceled):
			return err
		case errors.As(err, &de):
			// Never auto-retried: the expired budget is the same budget a
			// retry would run under, and an ambiguous expiry must reach
			// the caller so non-idempotent ops aren't blindly re-sent.
			return err
		case errors.As(err, &be):
			// A shed request never executed, so re-sending is safe even
			// for non-idempotent operations; back off to let the server
			// recover (a failover client switches mates instead).
			if attempt >= c.opts.MaxRetries {
				return err
			}
		case !idempotent || !Retryable(err) || attempt >= c.opts.MaxRetries:
			return err
		}
		c.backoff(ctx, attempt)
	}
}

// call runs one operation with retry. build constructs the request per
// attempt under c.mu, together with picking the session it goes out on, so
// a remote handle's binding always matches that session (a reconnect may
// have rebound the handle in between). Each attempt's encoder is released
// once sent.
func (c *Client) call(ctx context.Context, op Op, idempotent bool, build func() (*Enc, error)) (*Dec, error) {
	var d *Dec
	err := c.withRetry(ctx, idempotent, func(ctx context.Context, s *session) error {
		c.mu.Lock()
		if s = c.sess; s == nil {
			c.mu.Unlock()
			return ErrClosed
		}
		req, err := build()
		c.mu.Unlock()
		if err != nil {
			return err
		}
		d, err = s.do(ctx, op, req)
		req.Release()
		return err
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// OpenDB opens a database by path on the server, returning a remote handle.
// The handle stays valid across reconnects: it is re-opened automatically.
func (c *Client) OpenDB(path string) (*RemoteDB, error) {
	return c.openDB(context.Background(), path)
}

func (c *Client) openDB(ctx context.Context, path string) (*RemoteDB, error) {
	h := &dbHandle{c: c, path: path}
	// Registered first, so a reconnect racing this open rebinds it too.
	c.mu.Lock()
	c.dbs[h] = struct{}{}
	c.mu.Unlock()
	err := c.withRetry(ctx, true, func(ctx context.Context, s *session) error {
		b, err := s.open(ctx, path)
		if err != nil {
			return err
		}
		c.mu.Lock()
		if c.sess == s {
			h.binding = b
		} // else a reconnect already bound h to the new session
		c.mu.Unlock()
		return nil
	})
	if err != nil {
		c.mu.Lock()
		delete(c.dbs, h)
		c.mu.Unlock()
		return nil, err
	}
	return &RemoteDB{dbHandle: h}, nil
}

// MailDeposit drops a mail note into the server's mail.box for routing.
// Depositing is not idempotent (a re-sent deposit would route twice), so
// it is never retried once sent.
func (c *Client) MailDeposit(n *nsf.Note) error {
	return c.mailDeposit(context.Background(), n)
}

func (c *Client) mailDeposit(ctx context.Context, n *nsf.Note) error {
	_, err := c.call(ctx, OpMailDeposit, false, func() (*Enc, error) { return NewEnc(OpMailDeposit).Note(n), nil })
	return err
}

// RemoteDB is a handle on a database opened over the wire. It implements
// repl.Peer, so a local replicator can sync against it directly.
type RemoteDB struct {
	*dbHandle
	// ctx, when set, is the context every operation through this value
	// runs under (see with); otherwise each operation gets its own, with
	// Options.OpBudget as its deadline.
	ctx context.Context
}

// dbHandle is the state a RemoteDB shares with its context-scoped views.
type dbHandle struct {
	c       *Client
	path    string
	binding // guarded by c.mu
}

var _ repl.Peer = (*RemoteDB)(nil)

// with returns a view of r whose operations run under ctx: a failover
// client uses it to spread one deadline across mates, and to cancel a hedge
// loser.
func (r *RemoteDB) with(ctx context.Context) *RemoteDB {
	return &RemoteDB{dbHandle: r.dbHandle, ctx: ctx}
}

// Title returns the remote database title.
func (r *RemoteDB) Title() string {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	return r.title
}

// Path returns the server-side path the database was opened by.
func (r *RemoteDB) Path() string { return r.path }

// Release forgets the handle client-side: it is no longer re-opened after
// reconnects. There is no server-side close; server handles die with the
// connection.
func (r *RemoteDB) Release() {
	r.c.mu.Lock()
	delete(r.c.dbs, r.dbHandle)
	r.c.mu.Unlock()
}

// call runs one operation against this database's current handle.
func (r *RemoteDB) call(op Op, idempotent bool, build func() *Enc) (*Dec, error) {
	ctx := r.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return r.c.call(ctx, op, idempotent, func() (*Enc, error) {
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
	r.c.mu.Lock()
	r.replica = replica
	r.c.mu.Unlock()
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
func (r *RemoteDB) Create(n *nsf.Note) error { return r.store(OpCreateNote, n) }

// Update stores a modified document. A re-sent update advances the version
// twice, so it is not retried after a mid-trip failure.
func (r *RemoteDB) Update(n *nsf.Note) error { return r.store(OpUpdateNote, n) }

// store sends n with a create or update op and adopts the stored note the
// server returns (with assigned IDs and OID).
func (r *RemoteDB) store(op Op, n *nsf.Note) error {
	d, err := r.call(op, false, func() *Enc {
		return NewEnc(op).U32(r.handle).Note(n)
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
	r.c.putMu.Lock()
	defer r.c.putMu.Unlock()
	base := r.c.putSeq + 1
	r.c.putSeq += uint64(len(notes))
	key := r.c.putKey
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
