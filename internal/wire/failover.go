package wire

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/retry"
)

// FailoverClient is the cluster-aware client: it spreads one logical
// session over a list of cluster-mate addresses, with per-mate circuit
// breakers, availability probes, and availability-weighted mate selection.
// Each mate has its own multiplexed Client, dialed on first use, and the
// database handles opened on it, each opened on first use there. When the
// current mate dies or sheds with a busy response, operations transparently
// land on a surviving mate and its handles, so open FailoverDB handles
// follow the session across servers.
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

// mate is one cluster member: its address, its session, and health
// bookkeeping. c is set at creation and never changes; every other field is
// guarded by FailoverClient.mu.
type mate struct {
	addr     string
	name     string               // cluster-mate name, learned from placement records
	c        *Client              // dials on first use and redials after a transport fault
	dbs      map[string]*RemoteDB // handles opened on c, by path
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

// placement is the cached placement of one database path: the
// generation-stamped home set from the last resolve or redirect. No homes
// means unplaced: any mate serves it.
type placement struct {
	gen   uint64
	homes []HomeAddr
}

// has reports whether m is in the home set, matched by address or learned
// mate name.
func (p placement) has(m *mate) bool {
	for _, h := range p.homes {
		if h.Addr != "" && h.Addr == m.addr {
			return true
		}
		if h.Name != "" && m.name != "" && h.Name == m.name {
			return true
		}
	}
	return false
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
// cluster mates. Any number of goroutines may share one FailoverClient: its
// lock guards only bookkeeping and is never held across a dial, probe, open
// or round trip, so callers run side by side on the mates' multiplexed
// sessions.
type FailoverClient struct {
	opts   FailoverOptions
	user   string
	secret string

	mu     sync.Mutex
	mates  []*mate
	cur    *mate // the mate operations run on; nil until one is attached
	places map[string]placement
	closed bool
	stats  FailoverStats
	// hTokens is the hedge-rate token bucket (see HedgeRateCap).
	hTokens float64
	// latEwmaUs/latDevUs track read latency (EWMA and mean deviation,
	// microseconds) to derive the adaptive hedge delay.
	latEwmaUs int64
	latDevUs  int64
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
		places: make(map[string]placement),
	}
	for _, a := range addrs {
		fc.mates = append(fc.mates, fc.newMate(a, ""))
	}
	if _, err := fc.attach(context.Background(), nil); err != nil {
		fc.Close()
		return nil, err
	}
	return fc, nil
}

// newMate makes a mate whose session is dialed on first use.
func (fc *FailoverClient) newMate(addr, name string) *mate {
	return &mate{addr: addr, name: name, avail: -1, dbs: make(map[string]*RemoteDB),
		c: newClient(addr, fc.user, fc.secret, fc.opts.Client)}
}

// Close terminates every mate's session; operations in flight fail.
func (fc *FailoverClient) Close() error {
	fc.mu.Lock()
	fc.closed = true
	mates := slices.Clone(fc.mates)
	fc.mu.Unlock()
	for _, m := range mates {
		m.c.Close()
	}
	return nil
}

// User returns the authenticated user name.
func (fc *FailoverClient) User() string { return fc.user }

// Current returns the address of the connected mate, if any.
func (fc *FailoverClient) Current() (string, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.cur == nil {
		return "", false
	}
	return fc.cur.addr, true
}

// Stats returns a snapshot of failover activity.
func (fc *FailoverClient) Stats() FailoverStats {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.stats
}

// ProbeAll probes every mate's availability, updating the selection state,
// and returns the results keyed by address (failed probes are omitted).
func (fc *FailoverClient) ProbeAll() map[string]AvailabilityInfo {
	fc.mu.Lock()
	mates := slices.Clone(fc.mates)
	fc.mu.Unlock()
	out := make(map[string]AvailabilityInfo, len(mates))
	for _, m := range mates {
		if info, err := fc.probe(m); err == nil {
			out[m.addr] = info
		}
	}
	return out
}

// probe sends one availability probe to m and folds the answer into its
// health state. A failed probe counts as a breaker failure.
func (fc *FailoverClient) probe(m *mate) (AvailabilityInfo, error) {
	info, err := ProbeAvailability(m.addr, fc.opts.Client.Dialer, fc.opts.ProbeTimeout)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.stats.Probes++
	if err != nil {
		fc.markFailLocked(m)
		return AvailabilityInfo{}, err
	}
	m.avail = info.Index
	m.restricted = info.Restricted()
	return info, nil
}

// markFailLocked records a transport failure against m; enough consecutive
// failures open its breaker.
func (fc *FailoverClient) markFailLocked(m *mate) {
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

// servesLocked reports whether m may serve db by its cached placement: a
// nil db, an unresolved or an unplaced path is served anywhere.
func (fc *FailoverClient) servesLocked(db *FailoverDB, m *mate) bool {
	if db == nil {
		return true
	}
	p, ok := fc.places[db.path]
	return !ok || len(p.homes) == 0 || p.has(m)
}

// candidatesLocked orders the mates for a connection attempt: healthy
// (breaker closed, not restricted) mates first by availability index
// descending, then — as a last resort, because serving degraded beats not
// serving — open-breaker and restricted mates by availability. Open or
// restricted mates are probed before use, which is the half-open breaker
// transition. For a placed db, its home mates go first (stably, keeping the
// availability order within each partition): a non-home mate can only earn
// a redirect, but stays as fallback since it can still teach us fresher
// placement.
func (fc *FailoverClient) candidatesLocked(db *FailoverDB) []*mate {
	var healthy, fallback []*mate
	now := time.Now()
	for _, m := range fc.mates {
		eligible := m.state == breakerClosed ||
			(m.state == breakerOpen && now.Sub(m.openedAt) >= fc.cooldownLocked(m))
		if eligible && !m.restricted {
			healthy = append(healthy, m)
		} else {
			fallback = append(fallback, m)
		}
	}
	byAvail := func(ms []*mate) {
		// Stable: mate lists are tiny, and stability keeps the configured
		// preference order on ties.
		slices.SortStableFunc(ms, func(a, b *mate) int { return b.effectiveAvail() - a.effectiveAvail() })
	}
	byAvail(healthy)
	byAvail(fallback)
	order := append(healthy, fallback...)
	if db == nil {
		return order
	}
	if p := fc.places[db.path]; len(p.homes) > 0 {
		var home, rest []*mate
		for _, m := range order {
			if p.has(m) {
				home = append(home, m)
			} else {
				rest = append(rest, m)
			}
		}
		order = append(home, rest...)
	}
	return order
}

// noteRecordLocked folds a placement record (from an OpResolve or a
// StatusWrongMate redirect) into the client: the path's cached placement
// adopts it unless the cache holds a newer generation, and home addresses
// we have never seen become new mates — a redirect can teach the client
// about cluster members it was not configured with.
func (fc *FailoverClient) noteRecordLocked(path string, gen uint64, homes []HomeAddr) {
	if p, ok := fc.places[path]; !ok || gen >= p.gen {
		fc.places[path] = placement{gen: gen, homes: slices.Clone(homes)}
	}
	for _, h := range homes {
		if h.Addr == "" {
			continue
		}
		i := slices.IndexFunc(fc.mates, func(m *mate) bool { return m.addr == h.Addr })
		if i < 0 {
			fc.mates = append(fc.mates, fc.newMate(h.Addr, h.Name))
		} else if fc.mates[i].name == "" {
			fc.mates[i].name = h.Name
		}
	}
}

// attach picks the mate one attempt runs on and makes sure its session is
// up: the current mate while it serves db, else the best candidate, probing
// open-breaker and restricted mates first (the half-open transition) and
// dialing the session on first use. Only the bookkeeping between those
// steps runs under fc.mu. A mate that cannot be reached costs no operation
// anything, since nothing was sent to it.
func (fc *FailoverClient) attach(ctx context.Context, db *FailoverDB) (*mate, error) {
	fc.mu.Lock()
	if fc.closed {
		fc.mu.Unlock()
		return nil, ErrClosed
	}
	var order []*mate
	first := fc.cur
	if first != nil && fc.servesLocked(db, first) {
		order = append(order, first)
	} else {
		first = nil
	}
	for _, m := range fc.candidatesLocked(db) {
		if m != first {
			order = append(order, m)
		}
	}
	fc.mu.Unlock()
	var firstErr error
	for _, m := range order {
		fc.mu.Lock()
		halfOpen := m.state == breakerOpen || m.restricted
		fc.mu.Unlock()
		if halfOpen {
			// One cheap probe decides whether the mate gets a real dial. A
			// restricted (draining) mate is skipped until a probe says it is
			// open again.
			info, err := fc.probe(m)
			if err == nil && info.Restricted() {
				err = fmt.Errorf("wire: failover: mate %s is RESTRICTED", m.addr)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
		}
		if _, err := m.c.session(ctx); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err // withdrawn (a hedge won): no fault of the mate
			}
			fc.mu.Lock()
			fc.markFailLocked(m)
			if fc.cur == m {
				// The current mate died between operations.
				fc.stats.Failovers++
				fc.leaveLocked(m)
			}
			fc.mu.Unlock()
			if firstErr == nil || !Retryable(firstErr) {
				firstErr = err
			}
			continue
		}
		// A live session closes the breaker but does NOT clear the failure
		// count — a mate that accepts connections and then dies on every
		// operation would otherwise never trip it. Only a completed
		// operation proves health and resets the count.
		fc.mu.Lock()
		fc.cur = m
		m.state, m.restricted = breakerClosed, false
		fc.mu.Unlock()
		return m, nil
	}
	if firstErr == nil {
		firstErr = errors.New("wire: failover: no reachable mate")
	}
	return nil, fmt.Errorf("wire: failover: all %d mates unreachable: %w", len(order), firstErr)
}

// handle returns m's handle on path, opening it there on first use.
func (fc *FailoverClient) handle(ctx context.Context, m *mate, path string) (*RemoteDB, error) {
	fc.mu.Lock()
	r := m.dbs[path]
	fc.mu.Unlock()
	if r != nil {
		return r, nil
	}
	r, err := m.c.openDB(ctx, path)
	if err != nil {
		return nil, err
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if won := m.dbs[path]; won != nil {
		r.Release() // a concurrent open got there first; share its handle
		return won, nil
	}
	m.dbs[path] = r
	return r, nil
}

// settle folds one attempt's outcome on m into breakers, placement and
// stats, and reports whether the operation may go on to another mate.
// Application errors never fail over; shed (busy) responses and placement
// redirects always may, since the request never executed; transport
// failures may only for idempotent operations.
func (fc *FailoverClient) settle(m *mate, db *FailoverDB, idempotent bool, err error) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var de *DeadlineError
	var be *BusyError
	var wme *WrongMateError
	var se *ServerError
	switch {
	case err == nil:
		m.fails, m.reopens = 0, 0
		return false
	case errors.Is(err, context.Canceled), errors.As(err, &se):
		// The caller withdrew this op (a hedge won elsewhere), or the mate
		// reported an application error. Either way the mate is healthy:
		// no breaker damage, no failover.
		return false
	case errors.As(err, &de):
		// The budget is spent; a failover hop would run on the same
		// exhausted budget. Surface it — preserving the ambiguity verdict,
		// which the caller needs for non-idempotent ops. A LOCAL mid-op
		// expiry additionally means the transport died under the op (a
		// stalled mate our own deadline had to cut), so count it against
		// the mate: the breaker steers the NEXT operation elsewhere instead
		// of feeding the stall another budget. A remote verdict or a
		// pre-send refusal says nothing bad about the mate.
		if !de.Remote && de.Ambiguous {
			fc.markFailLocked(m)
			fc.leaveLocked(m)
		}
		return false
	case errors.As(err, &be):
		// The mate shed the request before executing it: remember how
		// loaded it is, then redirect — safe even for non-idempotent
		// operations.
		m.avail = be.Availability
		m.restricted = be.State == StateRestricted
		fc.stats.BusyRedirects++
	case errors.As(err, &wme):
		// Placement redirect: the request never executed. Adopt the carried
		// home set (fresher generation wins) and drop this mate's handle,
		// which a reconnect may have poisoned with the redirect; the next
		// attempt routes to a home mate. Safe for non-idempotent
		// operations, like a busy shed.
		path := wme.Path
		if db != nil {
			path = db.path
			if r := m.dbs[path]; r != nil {
				r.Release()
				delete(m.dbs, path)
			}
		}
		fc.noteRecordLocked(path, wme.Generation, wme.Homes)
		fc.stats.WrongMateRedirects++
	default:
		// Transport failure: the mate's client already spent its (short)
		// retry/redial budget. Count it, open the path to the breaker, and
		// fail over — unless the dead mate may have executed a
		// non-idempotent request: then surface the failure, and let the
		// NEXT operation find a live mate.
		fc.markFailLocked(m)
		fc.stats.Failovers++
		fc.leaveLocked(m)
		return idempotent
	}
	fc.leaveLocked(m)
	return true
}

// leaveLocked stops routing new operations to m; the next attempt picks
// afresh.
func (fc *FailoverClient) leaveLocked(m *mate) {
	if fc.cur == m {
		fc.cur = nil
	}
}

// withFailover runs fn with mate failover: each attempt picks a mate
// (attach), runs fn on it, and settles the outcome; shed responses,
// placement redirects and — for idempotent operations — transport failures
// move on to the next-best mate, bounded by MaxFailovers. Mate choice is
// biased toward db's home mates (nil db means no bias). A ctx without a
// deadline gets Client.OpBudget, so ONE user budget spans every mate switch
// and retry: each hop runs under the same ctx and its frames carry only
// what remains.
func (fc *FailoverClient) withFailover(ctx context.Context, db *FailoverDB, idempotent bool, fn func(ctx context.Context, m *mate) error) error {
	if _, ok := ctx.Deadline(); !ok && fc.opts.Client.OpBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, fc.opts.Client.OpBudget)
		defer cancel()
	}
	for switches := 0; ; switches++ {
		if err := ctx.Err(); err != nil && switches > 0 {
			if err == context.DeadlineExceeded {
				// Budget spent between hops: every abandoned attempt ended
				// in a provably-not-executed state (shed, redirect, refused)
				// or was idempotent, so this expiry is unambiguous.
				return &DeadlineError{}
			}
			return err
		}
		m, err := fc.attach(ctx, db)
		if err != nil {
			return err
		}
		err = fn(ctx, m)
		if !fc.settle(m, db, idempotent, err) || switches >= fc.opts.MaxFailovers {
			return err
		}
	}
}

// Availability reports the connected mate's availability snapshot.
func (fc *FailoverClient) Availability() (AvailabilityInfo, error) {
	var info AvailabilityInfo
	err := fc.withFailover(context.Background(), nil, true, func(ctx context.Context, m *mate) (err error) {
		info, err = m.c.availability(ctx)
		return err
	})
	return info, err
}

// MailDeposit routes a mail note via whichever mate is alive. Depositing
// is not idempotent; a mid-trip failure is surfaced, not re-sent.
func (fc *FailoverClient) MailDeposit(n *nsf.Note) error {
	return fc.withFailover(context.Background(), nil, false, func(ctx context.Context, m *mate) error {
		return m.c.mailDeposit(ctx, n)
	})
}

// OpenDB opens a database by path, returning a handle that follows the
// session across mate failover: whichever mate an operation lands on, the
// handle is opened there on first use.
func (fc *FailoverClient) OpenDB(path string) (*FailoverDB, error) {
	db := &FailoverDB{fc: fc, path: path}
	err := fc.withFailover(context.Background(), db, true, func(ctx context.Context, m *mate) error {
		fc.mu.Lock()
		_, resolved := fc.places[path]
		fc.mu.Unlock()
		if !resolved {
			// Eager resolve on first open: one cheap RPC on the live session
			// tells us the home set before we risk a redirect. A resolve
			// failure is not fatal — the open itself carries the same
			// information in its redirect.
			info, rerr := m.c.resolve(ctx, path)
			fc.mu.Lock()
			fc.stats.Resolves++
			if rerr == nil {
				fc.noteRecordLocked(path, info.Generation, info.Homes)
			}
			p, serves := fc.places[path], fc.servesLocked(db, m)
			fc.mu.Unlock()
			if !serves {
				// With a fresh cache, redirect ourselves instead of asking a
				// mate we know is wrong.
				return &WrongMateError{Op: OpOpenDB, Path: path, Generation: p.gen, Homes: p.homes}
			}
		}
		_, err := fc.handle(ctx, m, path)
		return err
	})
	if err != nil {
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
}

// Placement returns the database's cached placement: the generation and
// home set learned from the last resolve or redirect, and whether any
// resolution has happened yet.
func (f *FailoverDB) Placement() (gen uint64, homes []HomeAddr, resolved bool) {
	f.fc.mu.Lock()
	defer f.fc.mu.Unlock()
	p, ok := f.fc.places[f.path]
	return p.gen, slices.Clone(p.homes), ok
}

var _ repl.Peer = (*FailoverDB)(nil)

// Path returns the server-side path the database was opened by.
func (f *FailoverDB) Path() string { return f.path }

// Title returns the database title as reported by the current mate.
func (f *FailoverDB) Title() string {
	f.fc.mu.Lock()
	var r *RemoteDB
	if cur := f.fc.cur; cur != nil {
		r = cur.dbs[f.path]
	}
	f.fc.mu.Unlock()
	if r == nil {
		return ""
	}
	return r.Title()
}

// Release forgets the database's handles on every mate; a later operation
// through any handle on the same path opens it again.
func (f *FailoverDB) Release() {
	f.fc.mu.Lock()
	defer f.fc.mu.Unlock()
	for _, m := range f.fc.mates {
		if r := m.dbs[f.path]; r != nil {
			r.Release()
			delete(m.dbs, f.path)
		}
	}
}

// on runs fn under ctx against f's handle on m, opening it there first if
// needed.
func on[T any](ctx context.Context, f *FailoverDB, m *mate, fn func(r *RemoteDB) (T, error)) (T, error) {
	r, err := f.fc.handle(ctx, m, f.path)
	if err != nil {
		var zero T
		return zero, err
	}
	return fn(r.with(ctx))
}

// call runs fn under ctx against f's handle on whichever mate each attempt
// lands on, with mate choice biased toward f's home mates. Hedged reads
// pass a context carrying the deadline they snapshotted, so primary and
// hedge run out of the SAME budget, and cancel it to withdraw the loser.
func call[T any](ctx context.Context, f *FailoverDB, idempotent bool, fn func(r *RemoteDB) (T, error)) (T, error) {
	var v T
	err := f.fc.withFailover(ctx, f, idempotent, func(ctx context.Context, m *mate) (err error) {
		v, err = on(ctx, f, m, fn)
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

// hedgeDelayLocked derives the delay before a hedge fires: the fixed
// HedgeDelay when configured, else latency EWMA + 3 x mean deviation —
// reads slower than that are in the distribution's far tail, which is
// exactly when a second mate is likely to answer first.
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
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.latEwmaUs == 0 {
		fc.latEwmaUs = us
		return
	}
	diff := us - fc.latEwmaUs
	fc.latEwmaUs += diff / 8
	if diff < 0 {
		diff = -diff
	}
	fc.latDevUs += (diff - fc.latDevUs) / 4
}

// takeHedgeToken accrues HedgeRateCap tokens for an eligible read and
// tries to spend one on a hedge, counting it; false means the rate cap
// says no hedge this time.
func (fc *FailoverClient) takeHedgeToken() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.hTokens = min(fc.hTokens+fc.opts.HedgeRateCap, hedgeBurst)
	if fc.hTokens < 1 {
		return false
	}
	fc.hTokens--
	fc.stats.Hedges++
	return true
}

// hedgePlan picks the mate a hedged read on db would race: the best
// healthy mate serving db other than the current one, and the delay before
// the hedge fires. ok is false when hedging cannot apply (off, no budget,
// no current mate, no second mate).
func (fc *FailoverClient) hedgePlan(db *FailoverDB) (h *mate, delay time.Duration, ok bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if !fc.opts.HedgeReads || fc.closed || fc.cur == nil || fc.opts.Client.OpBudget <= 0 {
		return nil, 0, false
	}
	for _, m := range fc.candidatesLocked(db) {
		if m != fc.cur && m.state == breakerClosed && !m.restricted && fc.servesLocked(db, m) {
			return m, fc.hedgeDelayLocked(), true
		}
	}
	return nil, 0, false
}

// hedgeResult carries one racer's outcome.
type hedgeResult[T any] struct {
	v     T
	err   error
	hedge bool
}

// hedgedRead runs fn as a hedged read: the primary gets a head start of one
// hedge delay; if it has not answered by then (and the rate cap allows),
// the same read runs as one more attempt on a second mate — on that mate's
// own session and handle — and the first success wins. The loser's request
// is withdrawn in-band — its context is cancelled, which sends OpCancel and
// leaves its connection up — so neither mate keeps working for a caller
// that already has its answer. fn must be idempotent and must tolerate
// running concurrently on two different RemoteDBs.
func hedgedRead[T any](f *FailoverDB, fn func(r *RemoteDB) (T, error)) (T, error) {
	fc := f.fc
	start := time.Now()
	h, delay, ok := fc.hedgePlan(f)
	if !ok {
		v, err := call(context.Background(), f, true, fn)
		if err == nil {
			fc.recordReadLatency(time.Since(start))
		}
		return v, err
	}
	deadline := start.Add(fc.opts.Client.OpBudget)
	ch := make(chan hedgeResult[T], 2)
	pctx, pcancel := context.WithDeadline(context.Background(), deadline)
	defer pcancel() // withdraws a primary that lost to the hedge
	hctx, hcancel := context.WithDeadline(context.Background(), deadline)
	defer hcancel() // withdraws a hedge that lost to the primary
	go func() {
		v, err := call(pctx, f, true, fn)
		ch <- hedgeResult[T]{v: v, err: err}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var first hedgeResult[T]
	racers := 1
	select {
	case first = <-ch:
	case <-timer.C:
		if fc.takeHedgeToken() {
			racers++
			go func() {
				v, err := on(hctx, f, h, fn)
				fc.settle(h, f, true, err)
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
		if second.err == nil || first.hedge {
			first = second
		}
	}
	switch {
	case first.err != nil:
	case first.hedge:
		fc.mu.Lock()
		fc.stats.HedgeWins++
		fc.mu.Unlock()
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
