package mesh

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/changefeed"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/retry"
)

// linkState is one scheduled link: its definition, its kick channel
// (RunNow, failed ships), its ship queue, and its counters.
type linkState struct {
	link Link
	kick chan struct{}
	wake chan struct{} // ship queue went non-empty
	stop chan struct{}

	mu sync.Mutex
	// st holds the counters; status fills in Link, BreakerOpen and Lag.
	st       LinkStatus
	stopped  bool
	subs     map[string]*changefeed.Subscriber // ship subscriptions, by db path
	shipQ    map[string][]*nsf.Note            // changes to ship, by db path
	queued   int                               // changes in shipQ
	shipping bool                              // a ship batch is in flight
	brokenAt time.Time                         // breaker open since; zero when closed
	lastOK   time.Time
	halfOpen bool
}

// shutdown stops the link's goroutines, detaches its ship subscriptions
// and discards unsent ships.
func (ls *linkState) shutdown() {
	ls.mu.Lock()
	if ls.stopped {
		ls.mu.Unlock()
		return
	}
	ls.stopped = true
	subs := ls.subs
	ls.subs, ls.shipQ, ls.queued = nil, nil, 0
	ls.mu.Unlock()
	close(ls.stop)
	for _, sub := range subs {
		sub.Unsubscribe()
	}
}

// kickRound asks for an immediate round; kicks coalesce while one is
// pending.
func (ls *linkState) kickRound() {
	select {
	case ls.kick <- struct{}{}:
	default:
	}
}

func (ls *linkState) status() LinkStatus {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	st := ls.st
	st.Link = ls.link
	st.BreakerOpen = !ls.brokenAt.IsZero()
	if !ls.lastOK.IsZero() {
		st.Lag = time.Since(ls.lastOK)
	}
	return st
}

// run is the per-link scheduler loop: wait out the interval (with jitter)
// or a kick, check admission and the breaker, run one round, update the
// backoff state.
func (m *Mesh) run(ls *linkState) {
	defer m.wg.Done()
	// Deterministic per-link jitter source: links with the same interval
	// de-phase from each other without global coordination.
	h := fnv.New64a()
	h.Write([]byte(ls.link.Name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	for {
		timer := time.NewTimer(m.nextDelay(ls, rng))
		select {
		case <-ls.stop:
			timer.Stop()
			return
		case <-ls.kick:
			timer.Stop()
		case <-timer.C:
		}
		if !m.breakerAllows(ls) {
			continue
		}
		if !m.opts.Node.Admitted() {
			ls.mu.Lock()
			ls.st.Note = "held: node draining"
			ls.mu.Unlock()
			continue
		}
		err := m.round(ls)
		m.settle(ls, err)
	}
}

// nextDelay computes how long to sleep before the next unsolicited round:
// the link interval with up to 25% of deterministic jitter (anti-entropy
// rounds across the mesh de-phase), stretched by the failure backoff, and
// floored at the breaker cooldown while the breaker is open.
func (m *Mesh) nextDelay(ls *linkState, rng *rand.Rand) time.Duration {
	ls.mu.Lock()
	interval := ls.link.Interval
	consec := ls.st.ConsecFails
	broken := !ls.brokenAt.IsZero()
	cooldown := m.cooldown(ls.link)
	ls.mu.Unlock()
	d := interval
	if consec > 0 && !broken {
		// Exponential backoff below the breaker threshold, capped at the
		// cooldown: 1 failure doubles the wait, 2 quadruple it.
		d = retry.Exp(interval, consec, cooldown)
	}
	if broken {
		d = cooldown / 4 // poll the breaker clock, not the peer
	}
	if d <= 0 {
		d = m.opts.Interval
	}
	// One-sided jitter: rounds never fire early (minimum spacing holds),
	// but peers sharing an interval de-phase.
	return retry.JitterUp(rng, d, 0.25)
}

// breakerAllows reports whether a round may run now. An open breaker
// swallows rounds until the cooldown elapses, then allows exactly one
// half-open probe; the probe's outcome (settle) closes or re-opens it.
func (m *Mesh) breakerAllows(ls *linkState) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.brokenAt.IsZero() {
		return true
	}
	if time.Since(ls.brokenAt) < m.cooldown(ls.link) {
		ls.st.Note = "breaker open"
		return false
	}
	if ls.halfOpen {
		return false // a probe is already in flight
	}
	ls.halfOpen = true
	return true
}

// settle folds a round's outcome into the link's backoff and breaker state.
func (m *Mesh) settle(ls *linkState, err error) {
	ls.mu.Lock()
	ls.st.Rounds++
	ls.halfOpen = false
	if err == nil {
		ls.st.ConsecFails = 0
		ls.brokenAt = time.Time{}
		ls.lastOK = time.Now()
		ls.st.Note = ""
		ls.mu.Unlock()
		return
	}
	ls.st.Failures++
	ls.st.ConsecFails++
	ls.st.Note = err.Error()
	tripped := false
	if ls.st.ConsecFails >= m.opts.BreakerAfter {
		if ls.brokenAt.IsZero() {
			tripped = true
		}
		ls.brokenAt = time.Now()
	}
	name := ls.link.Name
	ls.mu.Unlock()
	if tripped {
		m.logf("link %s: breaker open after %d consecutive failures: %v", name, m.opts.BreakerAfter, err)
	} else {
		m.logf("link %s: round failed: %v", name, err)
	}
}

// round runs one replication round over every database the link covers:
// dial the peer once, then replicate each matching local database against
// the peer's same-path database. A replica-ID mismatch (the peer holds an
// unrelated database at that path) is counted and skipped; any other error
// fails the round — the remaining databases wait for the retry, which is
// what the backoff ladder is for.
func (m *Mesh) round(ls *linkState) error {
	ls.mu.Lock()
	link := ls.link
	ls.mu.Unlock()
	sess, err := m.opts.Dialer(link.Peer)
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, p := range m.opts.Node.Paths() {
		if !matches(link.Glob, p) {
			continue
		}
		db, err := m.opts.Node.Open(p)
		if err != nil {
			return err
		}
		peerDB, same, err := openPeer(sess, p, db)
		if err != nil {
			return err
		}
		if !same {
			ls.mu.Lock()
			ls.st.SkippedDBs++
			ls.mu.Unlock()
			continue
		}
		opts := repl.Options{
			PeerName: cursorName(link, p),
			Formula:  link.Formula,
			Apply:    m.opts.Apply,
			PullOnly: link.Direction == Pull,
			PushOnly: link.Direction == Push,
		}
		if err := opts.Prepare(); err != nil {
			return err
		}
		stats, err := repl.Replicate(db, peerDB, opts)
		ls.mu.Lock()
		ls.st.NotesIn += uint64(stats.NotesFetched)
		ls.st.NotesOut += uint64(stats.NotesSent)
		ls.st.BytesIn += uint64(stats.BytesIn)
		ls.st.BytesOut += uint64(stats.BytesOut)
		ls.mu.Unlock()
		if err != nil {
			return err
		}
		if stats.Pull.Total()+stats.Push.Total() > 0 {
			m.logf("link %s: %s: %s", link.Name, p, stats)
		}
	}
	return nil
}

// openPeer opens the peer's database at path. same is false when the peer
// holds an unrelated database there: a replica-ID mismatch is a skip, not
// a failure.
func openPeer(sess Session, path string, db *core.Database) (peer repl.Peer, same bool, err error) {
	peer, err = sess.Open(path)
	if err != nil {
		return nil, false, err
	}
	remote, err := peer.ReplicaID()
	if err != nil {
		return nil, false, err
	}
	return peer, remote == db.ReplicaID(), nil
}
