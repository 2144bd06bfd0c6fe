package wire

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/retry"
)

// FailoverClient is the cluster-aware client: it wraps the retry/redial
// Client with a list of cluster-mate addresses, per-mate circuit breakers,
// availability probes, and availability-weighted mate selection. When the
// current mate dies or sheds with a busy response, operations transparently
// land on a surviving mate, and every open FailoverDB handle is re-opened
// there — the same rebind discipline the PR-1 reconnect path applies
// across a redial, lifted one level up to span servers.
//
// Semantics mirror Client's: idempotent operations (and shed requests,
// which provably never executed) retry across mates; a non-idempotent
// operation that fails mid-round-trip is surfaced to the caller, because
// the dead mate may have executed it — but the next operation fails over.

// FailoverOptions tune failover behaviour. The zero value gets defaults
// chosen for fast failover; see the field comments.
type FailoverOptions struct {
	// Client configures the per-mate connection. Zero values get
	// fast-failover defaults (1 inner retry, 20ms backoff base, 2s dial
	// timeout) rather than the standalone Client's patient ones: the
	// failover path IS the retry.
	Client Options
	// FailThreshold is how many consecutive transport failures open a
	// mate's circuit breaker (default 2).
	FailThreshold int
	// Cooldown is how long an open breaker waits before a half-open
	// probe may test the mate again (default 1s).
	Cooldown time.Duration
	// ProbeTimeout bounds one availability probe (default 1s).
	ProbeTimeout time.Duration
	// MaxFailovers bounds mate switches within one operation
	// (default 2 x number of mates).
	MaxFailovers int
	// HedgeReads enables hedged reads for idempotent single-shot
	// operations (Get, ViewPage, SearchPage): when the connected mate has
	// not answered after a delay derived from the observed latency
	// distribution, the same read is issued to a second mate and the first
	// response wins. The loser's request is withdrawn in-band (OpCancel)
	// and its connection stays up, so a stalled mate costs one hedge delay
	// instead of a full timeout, and nobody pays a redial afterwards.
	// Requires Client.OpBudget (the hedge rides the same budget).
	HedgeReads bool
	// HedgeDelay fixes the delay before the hedge fires. Zero derives it
	// adaptively from the read-latency EWMA plus 3 x its mean deviation —
	// a cheap stand-in for "past p99", so only genuinely slow reads hedge.
	HedgeDelay time.Duration
	// HedgeRateCap bounds hedging under cluster-wide load: every hedged-
	// eligible read earns this many hedge tokens (bursting to 3) and each
	// launched hedge spends one, so at most this fraction of reads hedge
	// in steady state. When every mate is slow, hedging self-limits
	// instead of doubling the cluster's load. Default 0.1.
	HedgeRateCap float64
}

func (o FailoverOptions) withDefaults(mates int) FailoverOptions {
	if o.Client.MaxRetries == 0 {
		o.Client.MaxRetries = 1
	}
	if o.Client.BackoffBase <= 0 {
		o.Client.BackoffBase = 20 * time.Millisecond
	}
	if o.Client.DialTimeout <= 0 {
		o.Client.DialTimeout = 2 * time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.MaxFailovers <= 0 {
		o.MaxFailovers = 2 * mates
		if o.MaxFailovers < 2 {
			o.MaxFailovers = 2
		}
	}
	if o.HedgeRateCap <= 0 {
		o.HedgeRateCap = 0.1
	}
	return o
}

// breaker states for one mate.
const (
	breakerClosed = iota // healthy, eligible
	breakerOpen          // failing; only a half-open probe after cooldown may test it
)

// mate is one cluster member's address plus health bookkeeping. All fields
// are guarded by FailoverClient.mu.
type mate struct {
	addr     string
	name     string // cluster-mate name, learned from placement records
	state    int
	fails    int
	openedAt time.Time
	// reopens counts how many times the breaker has opened since the last
	// completed operation; each reopen doubles the cooldown (capped), so a
	// mate that keeps failing its half-open probes gets probed ever less
	// often instead of on a fixed beat.
	reopens    int
	avail      int // last known availability index; -1 unknown
	restricted bool
}

// effectiveAvail treats an unprobed mate optimistically so fresh mates get
// tried before a known-loaded one.
func (m *mate) effectiveAvail() int {
	if m.avail < 0 {
		return 100
	}
	return m.avail
}

// FailoverStats counts failover activity.
type FailoverStats struct {
	// Failovers is how many times the client abandoned a mate after
	// transport failures.
	Failovers uint64
	// BusyRedirects is how many shed (busy) responses caused a mate switch.
	BusyRedirects uint64
	// WrongMateRedirects is how many placement redirects re-routed the
	// session to a home mate.
	WrongMateRedirects uint64
	// Resolves is how many OpResolve placement lookups were issued.
	Resolves uint64
	// Probes is how many availability probes were sent.
	Probes uint64
	// Hedges is how many hedged reads were launched; HedgeWins how many
	// were answered by the hedge mate before the primary.
	Hedges    uint64
	HedgeWins uint64
}

// FailoverClient holds a session that survives the death of individual
// cluster mates. One FailoverClient supports concurrent callers, but its
// operations run one at a time under the client lock (a hedge runs beside
// the primary it races).
type FailoverClient struct {
	opts   FailoverOptions
	user   string
	secret string

	mu     sync.Mutex
	mates  []*mate
	cur    int // index of the connected mate; -1 when disconnected
	client *Client
	dbs    map[*FailoverDB]struct{}
	closed bool
	stats  FailoverStats
	// routeHint, while an operation on a specific database is in flight,
	// biases connection attempts toward that database's home mates.
	routeHint *FailoverDB

	// Hedge state lives under its OWN lock: a primary read holds fc.mu for
	// its whole round trip, so the hedge path must never touch fc.mu or it
	// would deadlock behind the very stall it exists to escape.
	hmu sync.Mutex
	// hClient/hAddr/hDBs cache the hedge-side session and handles so a
	// hedge is one round trip, not dial+auth+open+read.
	hClient *Client
	hAddr   string
	hDBs    map[string]*RemoteDB
	// hTokens is the hedge-rate token bucket (see HedgeRateCap).
	hTokens float64
	// latEwmaUs/latDevUs track read latency (EWMA and mean deviation,
	// microseconds) to derive the adaptive hedge delay.
	latEwmaUs int64
	latDevUs  int64
	// hedges/hedgeWins are atomic (not under fc.mu) because the hedge path
	// records them while a primary holds fc.mu.
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
}

// DialFailover connects to the best available mate and authenticates.
// addrs lists the cluster mates in preference order (ties in availability
// resolve to the earlier address).
func DialFailover(addrs []string, user, secret string, opts FailoverOptions) (*FailoverClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("wire: failover: no mate addresses")
	}
	fc := &FailoverClient{
		opts:   opts.withDefaults(len(addrs)),
		user:   user,
		secret: secret,
		cur:    -1,
		dbs:    make(map[*FailoverDB]struct{}),
		hDBs:   make(map[string]*RemoteDB),
	}
	for _, a := range addrs {
		fc.mates = append(fc.mates, &mate{addr: a, avail: -1})
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if err := fc.connectLocked(); err != nil {
		return nil, err
	}
	return fc, nil
}

// Close terminates the current connection (and any cached hedge session).
func (fc *FailoverClient) Close() error {
	fc.hmu.Lock()
	fc.dropHedgeLocked(fc.hClient)
	fc.hmu.Unlock()
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.closed = true
	return fc.abandonLocked()
}

// User returns the authenticated user name.
func (fc *FailoverClient) User() string { return fc.user }

// Current returns the address of the connected mate, if any.
func (fc *FailoverClient) Current() (string, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.cur < 0 {
		return "", false
	}
	return fc.mates[fc.cur].addr, true
}

// Stats returns a snapshot of failover activity.
func (fc *FailoverClient) Stats() FailoverStats {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	st := fc.stats
	st.Hedges = fc.hedges.Load()
	st.HedgeWins = fc.hedgeWins.Load()
	return st
}

// ProbeAll probes every mate's availability, updating the selection state,
// and returns the results keyed by address (failed probes are omitted).
func (fc *FailoverClient) ProbeAll() map[string]AvailabilityInfo {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	out := make(map[string]AvailabilityInfo, len(fc.mates))
	for i := range fc.mates {
		if info, err := fc.probeLocked(i); err == nil {
			out[fc.mates[i].addr] = info
		}
	}
	return out
}

// probeLocked sends one availability probe to mate i and folds the answer
// into its health state. A failed probe counts as a breaker failure.
func (fc *FailoverClient) probeLocked(i int) (AvailabilityInfo, error) {
	m := fc.mates[i]
	fc.stats.Probes++
	info, err := ProbeAvailability(m.addr, fc.opts.Client.Dialer, fc.opts.ProbeTimeout)
	if err != nil {
		fc.markFailLocked(i)
		return AvailabilityInfo{}, err
	}
	m.avail = info.Index
	m.restricted = info.Restricted()
	return info, nil
}

// markFailLocked records a transport failure against mate i; enough
// consecutive failures open its breaker.
func (fc *FailoverClient) markFailLocked(i int) {
	m := fc.mates[i]
	m.fails++
	if m.fails >= fc.opts.FailThreshold && m.state != breakerOpen {
		m.state = breakerOpen
		m.openedAt = time.Now()
		m.reopens++
	} else if m.state == breakerOpen {
		m.openedAt = time.Now() // restart the cooldown
	}
}

// cooldownLocked is how long mate m's open breaker waits before a
// half-open probe: the configured Cooldown doubled per reopen (shared
// retry.Exp shape), capped at 8x, so a persistently dead mate is probed on
// a backing-off schedule rather than a fixed beat.
func (fc *FailoverClient) cooldownLocked(m *mate) time.Duration {
	return retry.Exp(fc.opts.Cooldown, m.reopens-1, 8*fc.opts.Cooldown)
}

// abandonLocked drops the current connection (if any).
func (fc *FailoverClient) abandonLocked() error {
	var err error
	if fc.client != nil {
		err = fc.client.Close()
		fc.client = nil
	}
	fc.cur = -1
	for db := range fc.dbs {
		db.r = nil
	}
	return err
}

// candidatesLocked orders the mates for a connection attempt: healthy
// (breaker closed, not restricted) mates first by availability index
// descending, then — as a last resort, because serving degraded beats not
// serving — open-breaker and restricted mates by availability. Open or
// restricted mates are probed before a full dial, which is the half-open
// breaker transition.
func (fc *FailoverClient) candidatesLocked() []int {
	var healthy, fallback []int
	now := time.Now()
	for i, m := range fc.mates {
		eligible := m.state == breakerClosed ||
			(m.state == breakerOpen && now.Sub(m.openedAt) >= fc.cooldownLocked(m))
		if eligible && !m.restricted {
			healthy = append(healthy, i)
		} else {
			fallback = append(fallback, i)
		}
	}
	byAvail := func(ix []int) {
		// Insertion sort: mate lists are tiny, and stability keeps the
		// configured preference order on ties.
		for a := 1; a < len(ix); a++ {
			for b := a; b > 0 && fc.mates[ix[b]].effectiveAvail() > fc.mates[ix[b-1]].effectiveAvail(); b-- {
				ix[b], ix[b-1] = ix[b-1], ix[b]
			}
		}
	}
	byAvail(healthy)
	byAvail(fallback)
	order := append(healthy, fallback...)
	// When the attempt is on behalf of a placed database, its home mates go
	// first (stably, keeping the availability order within each partition):
	// dialing a non-home mate can only earn a redirect. Non-home mates stay
	// as fallback — they can still teach us fresher placement.
	if hint := fc.routeHint; hint != nil && hint.resolved && len(hint.homes) > 0 {
		var home, rest []int
		for _, i := range order {
			if hint.homesMate(fc.mates[i]) {
				home = append(home, i)
			} else {
				rest = append(rest, i)
			}
		}
		order = append(home, rest...)
	}
	return order
}

// homesMate reports whether m is in the database's cached home set, matched
// by address or learned mate name.
func (f *FailoverDB) homesMate(m *mate) bool {
	for _, h := range f.homes {
		if h.Addr != "" && h.Addr == m.addr {
			return true
		}
		if h.Name != "" && m.name != "" && h.Name == m.name {
			return true
		}
	}
	return false
}

// noteRecordLocked folds a placement record (from an OpResolve or a
// StatusWrongMate redirect) into the client: every matching database handle
// with an older generation adopts it, and home addresses we have never seen
// become new mates — a redirect can teach the client about cluster members
// it was not configured with.
func (fc *FailoverClient) noteRecordLocked(path string, gen uint64, homes []HomeAddr) {
	for db := range fc.dbs {
		if db.path != path {
			continue
		}
		if db.resolved && gen < db.gen {
			continue // stale record: keep the fresher cache
		}
		db.gen = gen
		db.homes = append([]HomeAddr(nil), homes...)
		db.resolved = true
	}
	for _, h := range homes {
		if h.Addr == "" {
			continue
		}
		known := false
		for _, m := range fc.mates {
			if m.addr == h.Addr {
				if m.name == "" {
					m.name = h.Name
				}
				known = true
				break
			}
		}
		if !known {
			fc.mates = append(fc.mates, &mate{addr: h.Addr, name: h.Name, avail: -1})
		}
	}
}

// offHomeLocked returns a synthetic redirect when db's cached placement says
// the currently connected mate does not home it — saving the round trip the
// server would refuse anyway.
func (fc *FailoverClient) offHomeLocked(db *FailoverDB) error {
	if !db.resolved || len(db.homes) == 0 || fc.cur < 0 {
		return nil
	}
	if db.homesMate(fc.mates[fc.cur]) {
		return nil
	}
	return &WrongMateError{Op: OpOpenDB, Path: db.path, Generation: db.gen,
		Homes: append([]HomeAddr(nil), db.homes...)}
}

// connectLocked dials the best candidate mate, authenticates, and re-opens
// every registered FailoverDB handle there. On success the breaker closes.
func (fc *FailoverClient) connectLocked() error {
	var firstErr error
	for _, i := range fc.candidatesLocked() {
		m := fc.mates[i]
		if m.state == breakerOpen || m.restricted {
			// Half-open: one cheap probe decides whether the mate gets a
			// real dial. A restricted (draining) mate is skipped until a
			// probe says it is open again.
			info, err := fc.probeLocked(i)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if info.Restricted() {
				if firstErr == nil {
					firstErr = fmt.Errorf("wire: failover: mate %s is RESTRICTED", m.addr)
				}
				continue
			}
		}
		c, err := DialOptions(m.addr, fc.user, fc.secret, fc.opts.Client)
		if err != nil {
			fc.markFailLocked(i)
			if firstErr == nil || !Retryable(firstErr) {
				firstErr = err
			}
			continue
		}
		if err := fc.rebindLocked(c); err != nil {
			c.Close()
			fc.markFailLocked(i)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// A successful dial closes the breaker but does NOT clear the
		// failure count — a mate that accepts connections and then dies on
		// every operation would otherwise never trip it. Only a completed
		// operation (withFailover) proves health and resets the count.
		fc.client, fc.cur = c, i
		m.state, m.restricted = breakerClosed, false
		return nil
	}
	if firstErr == nil {
		firstErr = errors.New("wire: failover: no reachable mate")
	}
	return fmt.Errorf("wire: failover: all %d mates unreachable: %w", len(fc.mates), firstErr)
}

// rebindLocked re-opens every registered handle on a fresh client. A
// database missing on this mate — or homed elsewhere (placement redirect) —
// poisons only that handle (matching the Client reconnect rules); transport
// errors fail the whole attempt. A redirect also refreshes that handle's
// placement cache, so its next operation re-routes instead of failing.
func (fc *FailoverClient) rebindLocked(c *Client) error {
	for db := range fc.dbs {
		r, err := c.OpenDB(db.path)
		if err != nil {
			var se *ServerError
			var wme *WrongMateError
			if errors.As(err, &wme) {
				fc.noteRecordLocked(wme.Path, wme.Generation, wme.Homes)
				db.r, db.stale = nil, err
				continue
			}
			if errors.As(err, &se) {
				db.r, db.stale = nil, err
				continue
			}
			return err
		}
		db.r, db.stale = r, nil
	}
	return nil
}

// withFailover runs fn with mate failover: shed (busy) responses, placement
// redirects, and — for idempotent operations — transport failures move the
// session to the next-best mate and retry, bounded by MaxFailovers.
// Application errors never fail over. Connection attempts are biased toward
// db's home mates (nil db means no bias). A ctx without a deadline gets
// Client.OpBudget, so ONE user budget spans every mate switch and retry:
// each hop runs under the same ctx and its frames carry only what remains.
func (fc *FailoverClient) withFailover(ctx context.Context, db *FailoverDB, idempotent bool, fn func(ctx context.Context) error) error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.routeHint = db
	defer func() { fc.routeHint = nil }()
	if _, ok := ctx.Deadline(); !ok && fc.opts.Client.OpBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, fc.opts.Client.OpBudget)
		defer cancel()
	}
	for switches := 0; ; switches++ {
		if fc.closed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil && switches > 0 {
			if err == context.DeadlineExceeded {
				// Budget spent between hops: every abandoned attempt ended
				// in a provably-not-executed state (shed, redirect, refused)
				// or was idempotent, so this expiry is unambiguous.
				return &DeadlineError{}
			}
			return err
		}
		if fc.client == nil {
			if err := fc.connectLocked(); err != nil {
				return err
			}
		}
		err := fn(ctx)
		if err == nil {
			m := fc.mates[fc.cur]
			m.fails, m.reopens = 0, 0
			return nil
		}
		var de *DeadlineError
		var be *BusyError
		var wme *WrongMateError
		var se *ServerError
		switch {
		case errors.Is(err, context.Canceled), errors.As(err, &se):
			// The caller withdrew this op (a hedge won elsewhere), or the
			// mate reported an application error. Either way the mate is
			// healthy: no breaker damage, no failover.
			return err
		case errors.As(err, &de):
			// The budget is spent; a failover hop would run on the same
			// exhausted budget. Surface it — preserving the ambiguity
			// verdict, which the caller needs for non-idempotent ops. A
			// LOCAL mid-op expiry additionally means the transport died
			// under the op (a stalled mate our own deadline had to cut),
			// so count it against the mate: the breaker steers the NEXT
			// operation elsewhere instead of feeding the stall another
			// budget. A remote verdict or a pre-send refusal says nothing
			// bad about the mate.
			if !de.Remote && de.Ambiguous {
				fc.markFailLocked(fc.cur)
				fc.abandonLocked()
			}
			return err
		case errors.As(err, &be):
			// The mate shed the request before executing it: remember how
			// loaded it is, then redirect — safe even for non-idempotent
			// operations.
			m := fc.mates[fc.cur]
			m.avail = be.Availability
			m.restricted = be.State == StateRestricted
			fc.stats.BusyRedirects++
		case errors.As(err, &wme):
			// Placement redirect: the request never executed. Adopt the
			// carried home set (fresher generation wins), then reconnect —
			// the route hint steers the dial to a home mate. Safe for
			// non-idempotent operations, like a busy shed.
			fc.noteRecordLocked(wme.Path, wme.Generation, wme.Homes)
			fc.stats.WrongMateRedirects++
		default:
			// Transport failure: the inner client already spent its (short)
			// retry/redial budget against this mate. Count it, open the
			// path to the breaker, and fail over.
			fc.markFailLocked(fc.cur)
			fc.stats.Failovers++
			if !idempotent {
				// The dead mate may have executed the request; surface the
				// failure. The NEXT operation finds a live mate.
				fc.abandonLocked()
				return err
			}
		}
		fc.abandonLocked()
		if switches >= fc.opts.MaxFailovers {
			return err
		}
	}
}

// Availability reports the connected mate's availability snapshot.
func (fc *FailoverClient) Availability() (AvailabilityInfo, error) {
	var info AvailabilityInfo
	err := fc.withFailover(context.Background(), nil, true, func(ctx context.Context) error {
		var err error
		info, err = fc.client.availability(ctx)
		return err
	})
	return info, err
}

// MailDeposit routes a mail note via whichever mate is alive. Depositing
// is not idempotent; a mid-trip failure is surfaced, not re-sent.
func (fc *FailoverClient) MailDeposit(n *nsf.Note) error {
	return fc.withFailover(context.Background(), nil, false, func(ctx context.Context) error {
		return fc.client.mailDeposit(ctx, n)
	})
}

// OpenDB opens a database by path, returning a handle that follows the
// session across mate failover: after a switch, the handle is re-opened on
// the new mate before any operation runs.
func (fc *FailoverClient) OpenDB(path string) (*FailoverDB, error) {
	fc.mu.Lock()
	db := &FailoverDB{fc: fc, path: path}
	fc.dbs[db] = struct{}{} // registered first so a failover rebinds it too
	fc.mu.Unlock()
	err := fc.withFailover(context.Background(), db, true, func(ctx context.Context) error {
		if db.r != nil {
			return nil // a connectLocked rebind already bound it
		}
		if db.stale != nil {
			return db.stale // this mate lacks (or does not home) the database
		}
		if !db.resolved {
			// Eager resolve on first open: one cheap pre-auth-grade RPC on
			// the live session tells us the home set before we risk a
			// redirect. A resolve failure is not fatal — the open itself
			// carries the same information in its redirect.
			fc.stats.Resolves++
			if info, rerr := fc.client.resolve(ctx, db.path); rerr == nil {
				fc.noteRecordLocked(info.Path, info.Generation, info.Homes)
				if !db.resolved || info.Generation >= db.gen {
					db.gen = info.Generation
					db.homes = append([]HomeAddr(nil), info.Homes...)
					db.resolved = true
				}
			}
		}
		// With a fresh cache, redirect ourselves instead of asking a mate
		// we know is wrong.
		if werr := fc.offHomeLocked(db); werr != nil {
			return werr
		}
		r, err := fc.client.openDB(ctx, db.path)
		if err != nil {
			return err
		}
		db.r = r
		return nil
	})
	if err != nil {
		fc.mu.Lock()
		delete(fc.dbs, db)
		fc.mu.Unlock()
		return nil, err
	}
	return db, nil
}

// FailoverDB is a database handle that survives mate failover. It
// implements repl.Peer, so a replication session can ride through the
// death of the server it started against.
type FailoverDB struct {
	fc   *FailoverClient
	path string
	// r is the handle on the current mate; nil while disconnected.
	// stale is set when the current mate lacks the database.
	// Both are guarded by fc.mu.
	r     *RemoteDB
	stale error
	// Placement cache, guarded by fc.mu: the generation-stamped home set
	// from the last resolve or redirect. resolved=false means never
	// resolved; resolved with no homes means unplaced (any mate serves).
	gen      uint64
	homes    []HomeAddr
	resolved bool
}

// Placement returns the handle's cached placement: the generation and home
// set learned from the last resolve or redirect, and whether any resolution
// has happened yet.
func (f *FailoverDB) Placement() (gen uint64, homes []HomeAddr, resolved bool) {
	f.fc.mu.Lock()
	defer f.fc.mu.Unlock()
	return f.gen, append([]HomeAddr(nil), f.homes...), f.resolved
}

var _ repl.Peer = (*FailoverDB)(nil)

// Path returns the server-side path the database was opened by.
func (f *FailoverDB) Path() string { return f.path }

// Title returns the database title as reported by the current mate.
func (f *FailoverDB) Title() string {
	f.fc.mu.Lock()
	defer f.fc.mu.Unlock()
	if f.r == nil {
		return ""
	}
	return f.r.Title()
}

// Release forgets the handle: it is no longer re-opened after failover.
func (f *FailoverDB) Release() {
	f.fc.mu.Lock()
	defer f.fc.mu.Unlock()
	if f.r != nil {
		f.r.Release()
	}
	delete(f.fc.dbs, f)
}

// call runs fn under ctx against the handle on whichever mate is current,
// with connection attempts biased toward f's home mates. Hedged reads pass a
// context carrying the deadline they snapshotted, so primary and hedge run
// out of the SAME budget, and cancel it to withdraw the loser.
func call[T any](ctx context.Context, f *FailoverDB, idempotent bool, fn func(r *RemoteDB) (T, error)) (T, error) {
	var v T
	err := f.fc.withFailover(ctx, f, idempotent, func(ctx context.Context) error {
		if f.stale != nil {
			return f.stale
		}
		if f.r == nil {
			return protoErrorf("failover handle not bound")
		}
		var err error
		v, err = fn(f.r.with(ctx))
		return err
	})
	return v, err
}

// do runs an operation that returns only an error (see call).
func (f *FailoverDB) do(idempotent bool, fn func(r *RemoteDB) error) error {
	_, err := call(context.Background(), f, idempotent, func(r *RemoteDB) (struct{}, error) { return struct{}{}, fn(r) })
	return err
}

// ---- hedged reads ----

// hedgeBurst is the token-bucket depth for HedgeRateCap: short bursts of
// hedges are fine, sustained hedging is capped at the configured fraction.
const hedgeBurst = 3.0

// hedgeDelayLocked derives the delay before a hedge fires (fc.hmu held):
// the fixed HedgeDelay when configured, else latency EWMA + 3 x mean
// deviation — reads slower than that are in the distribution's far tail,
// which is exactly when a second mate is likely to answer first.
func (fc *FailoverClient) hedgeDelayLocked() time.Duration {
	if fc.opts.HedgeDelay > 0 {
		return fc.opts.HedgeDelay
	}
	d := time.Duration(fc.latEwmaUs+3*fc.latDevUs) * time.Microsecond
	const floor = 2 * time.Millisecond
	if d < floor {
		// Also the cold-start delay before any latency has been observed.
		return floor
	}
	return d
}

// recordReadLatency folds one successful read's duration into the EWMA and
// mean-deviation trackers (TCP-RTT-style gains: 1/8 and 1/4).
func (fc *FailoverClient) recordReadLatency(d time.Duration) {
	us := d.Microseconds()
	fc.hmu.Lock()
	if fc.latEwmaUs == 0 {
		fc.latEwmaUs = us
	} else {
		diff := us - fc.latEwmaUs
		fc.latEwmaUs += diff / 8
		if diff < 0 {
			diff = -diff
		}
		fc.latDevUs += (diff - fc.latDevUs) / 4
	}
	fc.hmu.Unlock()
}

// takeHedgeToken accrues HedgeRateCap tokens for an eligible read and
// tries to spend one; false means the rate cap says no hedge this time.
func (fc *FailoverClient) takeHedgeToken() bool {
	fc.hmu.Lock()
	defer fc.hmu.Unlock()
	fc.hTokens = min(fc.hTokens+fc.opts.HedgeRateCap, hedgeBurst)
	if fc.hTokens < 1 {
		return false
	}
	fc.hTokens--
	return true
}

// hedgeExec runs one read against a cached second-mate session under ctx,
// which carries the primary's deadline. alts lists acceptable hedge
// addresses (never the primary's). The session is multiplexed, so hedges
// from concurrent reads share it.
func (fc *FailoverClient) hedgeExec(ctx context.Context, path string, alts []string, fn func(r *RemoteDB) error) error {
	fc.hmu.Lock()
	// Reuse the cached hedge session only while it points at an acceptable
	// mate; a stale one (e.g. now the primary) is dropped.
	if fc.hClient != nil && !slices.Contains(alts, fc.hAddr) {
		fc.dropHedgeLocked(fc.hClient)
	}
	if fc.hClient == nil {
		c, err := DialOptions(alts[0], fc.user, fc.secret, fc.opts.Client)
		if err != nil {
			fc.hmu.Unlock()
			return err
		}
		fc.hClient, fc.hAddr = c, alts[0]
	}
	hc := fc.hClient
	rdb := fc.hDBs[path]
	fc.hmu.Unlock()
	if rdb == nil {
		r, err := hc.openDB(ctx, path)
		if err != nil {
			return err
		}
		fc.hmu.Lock()
		if fc.hClient == hc {
			fc.hDBs[path] = r
		}
		fc.hmu.Unlock()
		rdb = r
	}
	err := fn(rdb.with(ctx))
	if err != nil && Retryable(err) {
		// Transport fault: the cached session is suspect; drop it so the
		// next hedge dials fresh (possibly a different mate).
		fc.hmu.Lock()
		fc.dropHedgeLocked(hc)
		fc.hmu.Unlock()
	}
	return err
}

// dropHedgeLocked closes the cached hedge session if it is still hc
// (fc.hmu held).
func (fc *FailoverClient) dropHedgeLocked(hc *Client) {
	if hc != nil && fc.hClient == hc {
		hc.Close()
		fc.hClient = nil
		fc.hDBs = make(map[string]*RemoteDB)
	}
}

// hedgeSnapshot captures, under fc.mu, everything a hedged read needs
// before launching its primary goroutine: the operation deadline and the
// alternate mate addresses. ok is false when hedging cannot apply (off, no
// budget, no second mate, no live session yet).
func (fc *FailoverClient) hedgeSnapshot(db *FailoverDB) (deadline time.Time, alts []string, ok bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if !fc.opts.HedgeReads || fc.closed || fc.client == nil || fc.cur < 0 || fc.opts.Client.OpBudget <= 0 {
		return time.Time{}, nil, false
	}
	deadline = time.Now().Add(fc.opts.Client.OpBudget)
	cur := fc.mates[fc.cur].addr
	// Candidate order honors breakers and availability; home-mate bias
	// applies when the database is placed.
	fc.routeHint = db
	order := fc.candidatesLocked()
	fc.routeHint = nil
	for _, i := range order {
		if a := fc.mates[i].addr; a != cur {
			alts = append(alts, a)
		}
	}
	if len(alts) == 0 {
		return time.Time{}, nil, false
	}
	return deadline, alts, true
}

// hedgeResult carries one racer's outcome.
type hedgeResult[T any] struct {
	v     T
	err   error
	hedge bool
}

// hedgedRead runs fn as a hedged read: the primary mate gets a head start
// of one hedge delay; if it has not answered by then (and the rate cap
// allows), the same read runs against a second mate and the first success
// wins. The loser's request is withdrawn in-band — its context is
// cancelled, which sends OpCancel and leaves its connection up — so neither
// mate keeps working for a caller that already has its answer. fn must be
// idempotent and must tolerate running concurrently on two different
// RemoteDBs.
func hedgedRead[T any](f *FailoverDB, fn func(r *RemoteDB) (T, error)) (T, error) {
	fc := f.fc
	start := time.Now()
	deadline, alts, ok := fc.hedgeSnapshot(f)
	if !ok {
		v, err := call(context.Background(), f, true, fn)
		if err == nil {
			fc.recordReadLatency(time.Since(start))
		}
		return v, err
	}
	ch := make(chan hedgeResult[T], 2)
	pctx, pcancel := context.WithDeadline(context.Background(), deadline)
	defer pcancel()
	hctx, hcancel := context.WithDeadline(context.Background(), deadline)
	defer hcancel() // withdraws a hedge that lost to the primary
	go func() {
		v, err := call(pctx, f, true, fn)
		ch <- hedgeResult[T]{v: v, err: err}
	}()
	fc.hmu.Lock()
	timer := time.NewTimer(fc.hedgeDelayLocked())
	fc.hmu.Unlock()
	defer timer.Stop()
	var first hedgeResult[T]
	racers := 1
	select {
	case first = <-ch:
	case <-timer.C:
		if fc.takeHedgeToken() {
			racers++
			fc.hedges.Add(1)
			go func() {
				var v T
				err := fc.hedgeExec(hctx, f.path, alts, func(r *RemoteDB) (err error) {
					v, err = fn(r)
					return err
				})
				ch <- hedgeResult[T]{v: v, err: err, hedge: true}
			}()
		}
		first = <-ch
	}
	racers--
	if first.err != nil && racers > 0 {
		// First success wins: wait for the other racer. If both fail,
		// prefer the primary's error (it carries failover context and
		// ambiguity verdicts; the hedge was best-effort).
		second := <-ch
		racers--
		if second.err == nil || first.hedge {
			first = second
		}
	}
	switch {
	case first.err != nil:
	case first.hedge:
		fc.hedgeWins.Add(1)
		if racers > 0 {
			// Withdraw the primary and drain its result, so its goroutine
			// is done with fc.mu before we return; the cancel makes this
			// prompt.
			pcancel()
			<-ch
		}
	default:
		fc.recordReadLatency(time.Since(start))
	}
	return first.v, first.err
}

// ReplicaID implements repl.Peer.
func (f *FailoverDB) ReplicaID() (nsf.ReplicaID, error) {
	return call(context.Background(), f, true, (*RemoteDB).ReplicaID)
}

// Summaries implements repl.Peer.
func (f *FailoverDB) Summaries(since nsf.Timestamp, formulaSrc string) ([]repl.Summary, nsf.Timestamp, error) {
	var now nsf.Timestamp
	sums, err := call(context.Background(), f, true, func(r *RemoteDB) (sums []repl.Summary, err error) {
		sums, now, err = r.Summaries(since, formulaSrc)
		return sums, err
	})
	return sums, now, err
}

// Fetch implements repl.Peer.
func (f *FailoverDB) Fetch(unids []nsf.UNID) ([]*nsf.Note, error) {
	return call(context.Background(), f, true, func(r *RemoteDB) ([]*nsf.Note, error) { return r.Fetch(unids) })
}

// Apply implements repl.Peer. Replication applies are idempotent by the
// OID rules, so a batch interrupted by a mate's death is re-sent to the
// survivor.
func (f *FailoverDB) Apply(notes []*nsf.Note) (repl.ApplyStats, error) {
	return call(context.Background(), f, true, func(r *RemoteDB) (repl.ApplyStats, error) { return r.Apply(notes) })
}

// Get fetches a note from whichever mate is current. With HedgeReads on, a
// slow mate is raced by a second one and the first answer wins.
func (f *FailoverDB) Get(unid nsf.UNID) (*nsf.Note, error) {
	return hedgedRead(f, func(r *RemoteDB) (*nsf.Note, error) { return r.Get(unid) })
}

// Create stores a new document. Creation is not idempotent: a mid-trip
// mate death surfaces the error (the write may or may not have landed);
// the caller decides whether to re-issue, and the next call fails over.
func (f *FailoverDB) Create(n *nsf.Note) error {
	return f.do(false, func(r *RemoteDB) error { return r.Create(n) })
}

// Update stores a modified document; not idempotent, like Create.
func (f *FailoverDB) Update(n *nsf.Note) error {
	return f.do(false, func(r *RemoteDB) error { return r.Update(n) })
}

// Delete replaces a document with a deletion stub (idempotent).
func (f *FailoverDB) Delete(unid nsf.UNID) error {
	return f.do(true, func(r *RemoteDB) error { return r.Delete(unid) })
}

// PutBatch stores documents create-or-update through one round trip. The
// batch cursor makes it exactly-once even across failover or a placement
// redirect mid-stream, so it retries as idempotent.
func (f *FailoverDB) PutBatch(notes []*nsf.Note) (int, error) {
	return call(context.Background(), f, true, func(r *RemoteDB) (int, error) { return r.PutBatch(notes) })
}

// Search runs a full-text query on the current mate.
func (f *FailoverDB) Search(query string) ([]ft.Result, error) {
	return call(context.Background(), f, true, func(r *RemoteDB) ([]ft.Result, error) { return r.Search(query) })
}

// SearchPage runs one page of a full-text query, optionally pre-joining
// summary columns, on the current mate (hedged when HedgeReads is on —
// search pages address results by rank, valid on any mate).
func (f *FailoverDB) SearchPage(query string, columns []string, start, limit int) (SearchPage, error) {
	return hedgedRead(f, func(r *RemoteDB) (SearchPage, error) {
		return r.SearchPage(query, columns, start, limit)
	})
}

// ViewRows renders a view on the current mate, paging through it. A mate
// switch between pages restarts nothing: view pages address rows by index,
// so the next page simply comes from the new mate's rendering.
func (f *FailoverDB) ViewRows(view string) ([]ViewRow, error) {
	return call(context.Background(), f, true, func(r *RemoteDB) ([]ViewRow, error) { return r.ViewRows(view) })
}

// ViewPage fetches one page of a rendered view from the current mate
// (hedged when HedgeReads is on — view pages address rows by index, valid
// on any mate).
func (f *FailoverDB) ViewPage(view string, start, limit int) (ViewPage, error) {
	return hedgedRead(f, func(r *RemoteDB) (ViewPage, error) { return r.ViewPage(view, start, limit) })
}

// ScanPage runs one page of a bulk scan on the current mate. Scan cursors
// are bound to the server that minted them (NoteIDs are per-copy), so a
// page resumed after a mate switch fails with a server error rather than
// silently skipping or repeating documents; callers restart the scan with
// a nil cursor in that case.
func (f *FailoverDB) ScanPage(opts ScanOptions, cursor []byte) (ScanPage, error) {
	return call(context.Background(), f, true, func(r *RemoteDB) (ScanPage, error) { return r.ScanPage(opts, cursor) })
}

// Scan pages a formula-filtered, projected scan through fn. A mate switch
// mid-scan invalidates the cursor (see ScanPage) and surfaces as an error.
func (f *FailoverDB) Scan(opts ScanOptions, fn func(ScanRow) bool) error {
	return scanPages(func(cursor []byte) (ScanPage, error) { return f.ScanPage(opts, cursor) }, fn)
}

// Info fetches the database statistics from the current mate.
func (f *FailoverDB) Info() (DBInfo, error) {
	return call(context.Background(), f, true, (*RemoteDB).Info)
}
