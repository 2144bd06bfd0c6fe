package mesh

import (
	"repro/internal/changefeed"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/repl"
)

// Direct ship: a hot link subscribes to the changefeed of every local
// database it covers and ships each committed change straight to its peer
// over one cached session, with no summaries, fetch or cursor. Rounds stay
// the catch-up path: a ship that fails is dropped, counted on the link,
// and kicks the link's own round, which pushes everything since the
// link's cursor through the usual backoff and breaker. Ships ignore the
// node's drain state, because a draining node still owes its peers the
// writes it acknowledged; Flushed lets the drain wait for them.

// maxShipQueue bounds a link's pending ships; beyond it a change is left to
// the catch-up round instead of growing memory behind a slow peer.
const maxShipQueue = 10000

// ships reports whether the link ships local changes directly.
func (ls *linkState) ships() bool {
	return ls.link.Class == Hot && ls.link.Direction != Pull
}

// attach subscribes a shipping link to one covered local database's
// changefeed. Attaching the same database twice is a no-op.
func (m *Mesh) attach(ls *linkState, path string, db *core.Database) {
	if !ls.ships() || !matches(ls.link.Glob, path) {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.stopped || ls.subs[path] != nil {
		return
	}
	if ls.subs == nil {
		ls.subs = make(map[string]*changefeed.Subscriber)
	}
	ls.subs[path] = db.OnChange(func(n *nsf.Note) {
		if n.Class != nsf.ClassReplFormula { // bookkeeping never replicates
			ls.enqueue(path, n.Clone())
		}
	})
}

// enqueue queues one change for the ship loop, or leaves it to the
// catch-up round when the queue is full.
func (ls *linkState) enqueue(path string, n *nsf.Note) {
	ls.mu.Lock()
	if ls.stopped {
		ls.mu.Unlock()
		return
	}
	if ls.queued >= maxShipQueue {
		ls.st.Dropped++
		ls.mu.Unlock()
		ls.kickRound()
		return
	}
	if ls.shipQ == nil {
		ls.shipQ = make(map[string][]*nsf.Note)
	}
	ls.shipQ[path] = append(ls.shipQ[path], n)
	ls.queued++
	ls.mu.Unlock()
	select {
	case ls.wake <- struct{}{}:
	default:
	}
}

// shipLoop drains a hot link's ship queue until the link stops: each pass
// takes everything queued and ships it in one Apply batch per database.
func (m *Mesh) shipLoop(ls *linkState) {
	defer m.wg.Done()
	var conn shipConn
	defer conn.close()
	for {
		select {
		case <-ls.stop:
			return
		case <-ls.wake:
		}
		ls.mu.Lock()
		batch := ls.shipQ
		ls.shipQ, ls.queued, ls.shipping = nil, 0, true
		ls.mu.Unlock()
		for path, notes := range batch {
			m.ship(ls, &conn, path, notes)
		}
		ls.mu.Lock()
		ls.shipping = false
		ls.mu.Unlock()
	}
}

// ship sends one database's changes. A failure gets one retry on a fresh
// connection (the cached one may predate a peer restart); a second failure
// leaves the changes to the catch-up round.
func (m *Mesh) ship(ls *linkState, conn *shipConn, path string, notes []*nsf.Note) {
	opts := repl.Options{Formula: ls.link.Formula}
	sent, err := conn.ship(m, ls.link.Peer, path, notes, opts)
	if err != nil {
		conn.close()
		sent, err = conn.ship(m, ls.link.Peer, path, notes, opts)
	}
	ls.mu.Lock()
	if err == nil {
		ls.st.Shipped += uint64(sent)
		ls.mu.Unlock()
		return
	}
	conn.close()
	ls.st.Dropped += uint64(len(notes))
	ls.st.Note = "ship: " + err.Error()
	ls.mu.Unlock()
	m.logf("link %s: ship of %d changes to %s failed, left to catch-up: %v", ls.link.Name, len(notes), path, err)
	ls.kickRound()
}

// shipConn is a ship loop's cached session and its opened peer databases.
// A nil peer marks a database the peer holds under an unrelated replica
// ID; its changes are skipped, as a round skips it.
type shipConn struct {
	sess  Session
	peers map[string]repl.Peer
}

// ship sends notes to the peer's database at path and returns how many
// went out.
func (c *shipConn) ship(m *Mesh, peer, path string, notes []*nsf.Note, opts repl.Options) (int, error) {
	if c.sess == nil {
		sess, err := m.opts.Dialer(peer)
		if err != nil {
			return 0, err
		}
		c.sess, c.peers = sess, make(map[string]repl.Peer)
	}
	p, ok := c.peers[path]
	if !ok {
		db, err := m.opts.Node.Open(path)
		if err != nil {
			return 0, err
		}
		peerDB, same, err := openPeer(c.sess, path, db)
		if err != nil {
			return 0, err
		}
		if same {
			p = peerDB
		}
		c.peers[path] = p
	}
	if p == nil {
		return 0, nil
	}
	var st repl.Stats
	err := repl.Ship(p, notes, opts, &st)
	return st.NotesSent, err
}

func (c *shipConn) close() {
	if c.sess != nil {
		c.sess.Close()
		c.sess, c.peers = nil, nil
	}
}
