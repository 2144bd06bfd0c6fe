package mesh

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/repl"
)

// testNode is an in-process Node over a map of open databases.
type testNode struct {
	name     string
	admitted atomic.Bool

	mu  sync.Mutex
	dbs map[string]*core.Database
}

func newTestNode(t *testing.T, name string, paths map[string]nsf.ReplicaID) *testNode {
	t.Helper()
	n := &testNode{name: name, dbs: make(map[string]*core.Database)}
	n.admitted.Store(true)
	for p, replica := range paths {
		n.dbs[p] = openTestDB(t, p, replica)
	}
	return n
}

// openTestDB opens a fresh database replica that closes with the test.
func openTestDB(t *testing.T, path string, replica nsf.ReplicaID) *core.Database {
	t.Helper()
	db, err := core.Open(filepath.Join(t.TempDir(), strings.ReplaceAll(path, "/", "_")),
		core.Options{Title: path, ReplicaID: replica})
	if err != nil {
		t.Fatalf("Open %s: %v", path, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func (n *testNode) Name() string { return n.name }

func (n *testNode) Paths() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.dbs))
	for p := range n.dbs {
		out = append(out, p)
	}
	return out
}

func (n *testNode) Open(path string) (*core.Database, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	db, ok := n.dbs[path]
	if !ok {
		return nil, fmt.Errorf("no db %s", path)
	}
	return db, nil
}

func (n *testNode) Admitted() bool { return n.admitted.Load() }

func (n *testNode) add(path string, db *core.Database) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dbs[path] = db
}

// testDialer reaches other testNodes directly, optionally failing.
type testDialer struct {
	nodes map[string]*testNode
	fail  atomic.Bool
	dials atomic.Uint64
}

type testSession struct{ node *testNode }

func (s *testSession) Open(dbPath string) (repl.Peer, error) {
	db, err := s.node.Open(dbPath)
	if err != nil {
		return nil, err
	}
	return &repl.LocalPeer{DB: db}, nil
}

func (s *testSession) Close() error { return nil }

func (d *testDialer) Dial(peer string) (Session, error) {
	d.dials.Add(1)
	if d.fail.Load() {
		return nil, errors.New("dial refused (test fault)")
	}
	n, ok := d.nodes[peer]
	if !ok {
		return nil, fmt.Errorf("unknown peer %s", peer)
	}
	return &testSession{node: n}, nil
}

func createDoc(t *testing.T, db *core.Database, subject string) *nsf.Note {
	t.Helper()
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetWithFlags("Subject", nsf.TextValue(subject), nsf.FlagSummary)
	if err := db.Session("user").Create(n); err != nil {
		t.Fatalf("Create: %v", err)
	}
	return n
}

// waitConverged polls the audit until every replica fingerprints the same.
func waitConverged(t *testing.T, replicas map[string]*core.Database, within time.Duration) Audit {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		a, err := AuditConvergence(replicas)
		if err != nil {
			t.Fatalf("AuditConvergence: %v", err)
		}
		if a.Converged {
			return a
		}
		if time.Now().After(deadline) {
			for label, fp := range a.Fingerprints {
				t.Logf("%s: %s (%d notes, %d live)", label, fp.Digest[:12], fp.Notes, fp.Live)
			}
			t.Fatal("replicas did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func newMeshPair(t *testing.T) (*testNode, *testNode, *testDialer, *Mesh) {
	t.Helper()
	replica := nsf.NewReplicaID()
	a := newTestNode(t, "alpha", map[string]nsf.ReplicaID{"disc.nsf": replica})
	b := newTestNode(t, "beta", map[string]nsf.ReplicaID{"disc.nsf": replica})
	d := &testDialer{nodes: map[string]*testNode{"alpha": a, "beta": b}}
	m, err := New(Options{
		Node:     a,
		Dialer:   d.Dial,
		Interval: 20 * time.Millisecond,
		Cooldown: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return a, b, d, m
}

func TestColdLinkConverges(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	if err := m.Add(Link{Name: "ab", Peer: "beta", Glob: "*"}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "from alpha")
	createDoc(t, b.dbs["disc.nsf"], "from beta")
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
	st := m.Status()
	if len(st) != 1 || st[0].Rounds == 0 || st[0].Failures != 0 {
		t.Errorf("status = %+v", st)
	}
	if st[0].NotesIn == 0 || st[0].NotesOut == 0 {
		t.Errorf("transfer counters empty: %+v", st[0])
	}
}

func TestHotLinkFiresOnWrite(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	// Interval far beyond the test: only the direct ship can move it.
	err := m.Add(Link{Name: "hot", Peer: "beta", Glob: "disc.nsf", Class: Hot, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "instant")
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
	if st := waitStatus(t, m, "the ship count", func(st LinkStatus) bool { return st.Shipped > 0 }); st.Shipped != 1 || st.Rounds != 0 {
		t.Errorf("status = %+v, want one shipped change and no round", st)
	}
}

// waitStatus polls the first link's status until cond holds.
func waitStatus(t *testing.T, m *Mesh, what string, cond func(LinkStatus) bool) LinkStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := m.Status()[0]
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHotLinkShipsDatabaseOpenedAfterAdd: a database opened after the link
// was added ships as soon as the node attaches it, not at the next round an
// hour away.
func TestHotLinkShipsDatabaseOpenedAfterAdd(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	if err := m.Add(Link{Name: "hot", Peer: "beta", Class: Hot, Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	replica := nsf.NewReplicaID()
	lateA, lateB := openTestDB(t, "late.nsf", replica), openTestDB(t, "late.nsf", replica)
	a.add("late.nsf", lateA)
	b.add("late.nsf", lateB)
	m.Attach("late.nsf", lateA)
	createDoc(t, lateA, "late")
	waitConverged(t, map[string]*core.Database{"a": lateA, "b": lateB}, time.Second)
}

// TestSelectiveHotLinkShipsStubs: a hot link with a formula ships a
// document edited out of its selection as a selection stub.
func TestSelectiveHotLinkShipsStubs(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	err := m.Add(Link{Name: "sel", Peer: "beta", Class: Hot, Interval: time.Hour,
		Formula: "SELECT Subject != \"secret\""})
	if err != nil {
		t.Fatal(err)
	}
	doc := createDoc(t, a.dbs["disc.nsf"], "public")
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
	doc.SetWithFlags("Subject", nsf.TextValue("secret"), nsf.FlagSummary)
	if err := a.dbs["disc.nsf"].Session("user").Update(doc); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
	nb, err := b.dbs["disc.nsf"].RawGet(doc.OID.UNID)
	if err != nil || !nb.IsSelStub() {
		t.Fatalf("deselected doc at beta = %+v err=%v, want selection stub", nb, err)
	}
}

// TestShipFailureKicksCatchUpRound: a ship to a dead peer is dropped,
// counted, and kicks a round on a link whose interval is an hour away; once
// the peer is back the link's own catch-up round converges the replicas.
func TestShipFailureKicksCatchUpRound(t *testing.T) {
	a, b, d, m := newMeshPair(t)
	d.fail.Store(true)
	if err := m.Add(Link{Name: "hot", Peer: "beta", Class: Hot, Direction: Push, Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "undeliverable")
	waitStatus(t, m, "a drop and a kicked round", func(st LinkStatus) bool { return st.Dropped >= 1 && st.Failures >= 1 })
	if !m.Flushed() {
		t.Error("mesh not flushed after the drop")
	}
	d.fail.Store(false)
	if err := m.RunNow("hot"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
}

func TestSelectiveLinkStubsDeselected(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	err := m.Add(Link{Name: "sel", Peer: "beta", Formula: "SELECT Subject != \"secret\""})
	if err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "public")
	secret := createDoc(t, a.dbs["disc.nsf"], "secret")
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
	nb, err := b.dbs["disc.nsf"].RawGet(secret.OID.UNID)
	if err != nil || !nb.IsSelStub() {
		t.Fatalf("secret at beta = %+v err=%v, want selection stub", nb, err)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	a, b, d, m := newMeshPair(t)
	d.fail.Store(true)
	if err := m.Add(Link{Name: "ab", Peer: "beta", Interval: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := m.Status()[0]
		if st.BreakerOpen {
			if st.ConsecFails < 3 {
				t.Errorf("breaker open after only %d failures", st.ConsecFails)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// While open, dials stop (at most the half-open probes get through).
	before := d.dials.Load()
	time.Sleep(50 * time.Millisecond)
	if got := d.dials.Load() - before; got > 2 {
		t.Errorf("%d dials while breaker open, want <= 2 (half-open probes)", got)
	}
	// Heal the peer: the next half-open probe closes the breaker and the
	// link converges.
	d.fail.Store(false)
	createDoc(t, a.dbs["disc.nsf"], "after outage")
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
	st := m.Status()[0]
	if st.BreakerOpen || st.ConsecFails != 0 {
		t.Errorf("breaker did not close after recovery: %+v", st)
	}
}

func TestDrainHoldsRounds(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	a.admitted.Store(false)
	if err := m.Add(Link{Name: "ab", Peer: "beta", Interval: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "stuck")
	time.Sleep(60 * time.Millisecond)
	if got, _ := b.dbs["disc.nsf"].RawGet(nsf.UNID{}); got != nil {
		t.Fatal("unexpected note")
	}
	if n := b.dbs["disc.nsf"].Count(); n != 0 {
		t.Fatalf("replication ran while draining: %d notes at beta", n)
	}
	st := m.Status()[0]
	if !strings.Contains(st.Note, "draining") {
		t.Errorf("status note = %q, want draining hold", st.Note)
	}
	a.admitted.Store(true)
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
}

func TestReplicaMismatchIsSkipNotFailure(t *testing.T) {
	shared := nsf.NewReplicaID()
	a := newTestNode(t, "alpha", map[string]nsf.ReplicaID{
		"disc.nsf":  shared,
		"other.nsf": nsf.NewReplicaID(),
	})
	b := newTestNode(t, "beta", map[string]nsf.ReplicaID{
		"disc.nsf":  shared,
		"other.nsf": nsf.NewReplicaID(), // unrelated db at the same path
	})
	d := &testDialer{nodes: map[string]*testNode{"alpha": a, "beta": b}}
	m, err := New(Options{Node: a, Dialer: d.Dial, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Add(Link{Name: "ab", Peer: "beta", Glob: "*"}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "shared doc")
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
	// The replicas can converge before the round that moved the document
	// has visited the mismatched database; judge a completed round.
	st := waitStatus(t, m, "a completed round", func(st LinkStatus) bool { return st.Rounds > 0 })
	if st.Failures != 0 {
		t.Errorf("mismatch counted as failure: %+v", st)
	}
	if st.SkippedDBs == 0 {
		t.Errorf("mismatch not counted as skip: %+v", st)
	}
}

func TestRunNowAndRemove(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	if err := m.Add(Link{Name: "ab", Peer: "beta", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "kick me")
	if err := m.RunNow("ab"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
	if err := m.Remove("ab"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("ab"); err == nil {
		t.Error("double remove succeeded")
	}
	if err := m.RunNow("ab"); err == nil {
		t.Error("RunNow on removed link succeeded")
	}
	if got := len(m.Status()); got != 0 {
		t.Errorf("%d links after remove", got)
	}
	// Re-add resumes from the persisted cursors.
	if err := m.Add(Link{Name: "ab", Peer: "beta", Interval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "after re-add")
	waitConverged(t, map[string]*core.Database{"a": a.dbs["disc.nsf"], "b": b.dbs["disc.nsf"]}, 5*time.Second)
}

func TestValidateRejectsBadLinks(t *testing.T) {
	_, _, _, m := newMeshPair(t)
	cases := []struct {
		name string
		link Link
	}{
		{"no name", Link{Peer: "beta"}},
		{"bad name", Link{Name: "a b", Peer: "beta"}},
		{"no peer", Link{Name: "x"}},
		{"self link", Link{Name: "x", Peer: "alpha"}},
		{"bad glob", Link{Name: "x", Peer: "beta", Glob: "[unterminated"}},
		{"bad formula", Link{Name: "x", Peer: "beta", Formula: "SELECT ((("}},
	}
	for _, tc := range cases {
		if err := m.Add(tc.link); err == nil {
			t.Errorf("%s: Add accepted %+v", tc.name, tc.link)
		}
	}
	var fe *repl.FormulaError
	err := m.Validate(Link{Name: "x", Peer: "beta", Formula: "SELECT ((("})
	if !errors.As(err, &fe) {
		t.Errorf("bad formula error = %v, want *repl.FormulaError", err)
	}
	if err := m.Add(Link{Name: "ok", Peer: "beta"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Link{Name: "ok", Peer: "beta"}); err == nil {
		t.Error("duplicate link name accepted")
	}
}

func TestCursorNameChangesWithFormula(t *testing.T) {
	l := Link{Name: "x", Peer: "beta"}
	narrow, wide := l, l
	narrow.Formula = "SELECT Priority > 5"
	base := cursorName(l, "disc.nsf")
	if cursorName(narrow, "disc.nsf") == base {
		t.Error("formula change did not change the cursor name")
	}
	if cursorName(wide, "disc.nsf") != base {
		t.Error("identical link produced a different cursor name")
	}
	if cursorName(l, "other.nsf") == base {
		t.Error("database path not folded into the cursor name")
	}
}

func TestFingerprintDistinguishesAndMatches(t *testing.T) {
	replica := nsf.NewReplicaID()
	a := newTestNode(t, "alpha", map[string]nsf.ReplicaID{"d": replica})
	b := newTestNode(t, "beta", map[string]nsf.ReplicaID{"d": replica})
	fa, _ := FingerprintDB(a.dbs["d"])
	fb, _ := FingerprintDB(b.dbs["d"])
	if fa.Digest != fb.Digest {
		t.Error("empty replicas fingerprint differently")
	}
	createDoc(t, a.dbs["d"], "only at a")
	fa2, _ := FingerprintDB(a.dbs["d"])
	if fa2.Digest == fb.Digest {
		t.Error("diverged replicas fingerprint identically")
	}
	if fa2.Notes != 1 || fa2.Live != 1 {
		t.Errorf("fingerprint counts = %+v", fa2)
	}
}

func TestParseTopology(t *testing.T) {
	src := `
# mesh for the docs example
link hub-a  alpha hub *        hot  100ms both
spoke-b     beta  hub mail/*   cold 30s   pull  SELECT Priority > 5
`
	topo, err := ParseTopology(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo) != 2 {
		t.Fatalf("parsed %d links", len(topo))
	}
	a := topo[0]
	if a.Server != "alpha" || a.Link.Peer != "hub" || a.Link.Class != Hot ||
		a.Link.Interval != 100*time.Millisecond || a.Link.Direction != Both {
		t.Errorf("link 0 = %+v", a)
	}
	b := topo[1]
	if b.Link.Formula != "SELECT Priority > 5" || b.Link.Direction != Pull || b.Link.Class != Cold {
		t.Errorf("link 1 = %+v", b)
	}
	if got := LinksFor(topo, "BETA"); len(got) != 1 || got[0].Name != "spoke-b" {
		t.Errorf("LinksFor(beta) = %+v", got)
	}
	for _, bad := range []string{
		"link onlyfour a b c",
		"x a b * warm 30s both",
		"x a b * cold notaduration both",
		"x a b * cold 30s sideways",
		"dup a b * cold 30s both\ndup a c * cold 30s both",
	} {
		if _, err := ParseTopology(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTopology accepted %q", bad)
		}
	}
}

func TestRingAndHubSpokeShapes(t *testing.T) {
	servers := []string{"s0", "s1", "s2", "s3"}
	ring := Ring(servers, Link{Glob: "*", Interval: time.Second})
	if len(ring) != 4 {
		t.Fatalf("ring size %d", len(ring))
	}
	for i, tl := range ring {
		if tl.Server != servers[i] || tl.Link.Peer != servers[(i+1)%4] {
			t.Errorf("ring[%d] = %+v", i, tl)
		}
	}
	hs := HubSpoke("hub", []string{"s1", "s2"}, Link{Glob: "*"})
	if len(hs) != 2 || hs[0].Link.Peer != "hub" || hs[1].Server != "s2" {
		t.Errorf("hubspoke = %+v", hs)
	}
}
