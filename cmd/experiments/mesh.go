package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	domino "repro"
	"repro/internal/faultnet"
	"repro/internal/mesh"
)

// --- W8: epidemic mesh convergence under churn ---
//
// The replication-topology claim, measured end to end over the wire: 8
// servers each holding a replica of one database, connected by a mesh of
// hot links in a ring and in a hub-and-spoke, converge to identical
// (UNID, Seq, SeqTime) fingerprints — while the network drops and severs
// connections, one node sits behind a near-total inbound partition, and
// another is killed mid-churn and restarted on a new address. The audit
// also requires zero spurious conflicts: distinct documents gossiped over
// redundant paths must never be misread as concurrent edits.
//
// A selective phase runs the selection-stub semantics over a live link: a
// document edited out of the link's selection formula must be observed as
// a selection stub at the destination, with the fingerprints still equal.

const w8Path = "apps/disc.nsf"

// w8Result is one measured topology run, serialized to BENCH_mesh.json as
// the regression baseline.
type w8Result struct {
	Topology          string  `json:"topology"`
	Servers           int     `json:"servers"`
	Links             int     `json:"links"`
	Docs              int     `json:"docs"`
	Converged         bool    `json:"converged"`
	ConvergeMs        float64 `json:"converge_ms"`
	SpuriousConflicts int     `json:"spurious_conflicts"`
	SelStubs          int     `json:"sel_stubs,omitempty"`
	Rounds            uint64  `json:"rounds"`
	LinkFailures      uint64  `json:"link_failures"`
	NotesIn           uint64  `json:"notes_in"`
	NotesOut          uint64  `json:"notes_out"`
	BytesIn           uint64  `json:"bytes_in"`
	BytesOut          uint64  `json:"bytes_out"`
	FaultDrops        int64   `json:"fault_drops,omitempty"`
	FaultSevers       int64   `json:"fault_severs,omitempty"`
	KilledMate        string  `json:"killed_mate,omitempty"`
}

// w8Cluster is a mesh deployment: every server behind its own faultnet
// listener, all sharing one directory and one replica of w8Path.
type w8Cluster struct {
	base    string
	d       *domino.Directory
	names   []string
	replica domino.ReplicaID
	srv     map[string]*domino.Server
	addr    map[string]string
	nets    map[string]*faultnet.Net
	mesh    map[string]*domino.Mesh
	topo    []domino.TopoLink
	meshOpt domino.MeshOptions
}

func newW8Cluster(names []string, planFor func(name string) faultnet.Plan) *w8Cluster {
	base, err := os.MkdirTemp("", "domino-w8")
	if err != nil {
		log.Fatal(err)
	}
	c := &w8Cluster{
		base: base, d: domino.NewDirectory(), names: names,
		replica: domino.NewReplicaID(),
		srv:     map[string]*domino.Server{}, addr: map[string]string{},
		nets: map[string]*faultnet.Net{}, mesh: map[string]*domino.Mesh{},
		meshOpt: domino.MeshOptions{
			Interval: 50 * time.Millisecond,
			Cooldown: 250 * time.Millisecond,
		},
	}
	c.d.AddUser(domino.User{Name: "ada", Secret: "pw"})
	for _, name := range names {
		c.d.AddUser(domino.User{Name: name, Secret: name + "-secret"})
	}
	for _, name := range names {
		c.boot(name, planFor(name))
	}
	c.setPeers()
	return c
}

// boot creates (or re-creates, after a kill) one server: open the shared
// replica, serve behind a fresh faultnet listener, record the address.
func (c *w8Cluster) boot(name string, plan faultnet.Plan) {
	s, err := domino.NewServer(domino.ServerOptions{
		Name: name, DataDir: filepath.Join(c.base, name),
		Directory: c.d, PeerSecret: name + "-secret",
	})
	if err != nil {
		log.Fatal(err)
	}
	db, err := s.OpenDB(w8Path, domino.Options{Title: "disc", ReplicaID: c.replica})
	if err != nil {
		log.Fatal(err)
	}
	db.ACL().Set("ada", domino.Editor)
	for _, other := range c.names {
		db.ACL().Set(other, domino.Editor)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fn := faultnet.New(plan)
	fn.Disable()
	c.srv[name] = s
	c.nets[name] = fn
	c.addr[name] = s.Serve(fn.Listener(ln))
}

// setPeers refreshes every live server's peer address map — needed at
// startup and again after a restart lands a mate on a new port.
func (c *w8Cluster) setPeers() {
	for name, s := range c.srv {
		peers := map[string]string{}
		for _, other := range c.names {
			if other != name {
				peers[other] = c.addr[other]
			}
		}
		s.SetPeers(peers)
	}
}

// applyTopology starts each server's mesh and adds the links it runs.
func (c *w8Cluster) applyTopology(topo []domino.TopoLink) {
	c.topo = topo
	for _, name := range c.names {
		c.startMesh(name)
	}
}

func (c *w8Cluster) startMesh(name string) {
	m, err := c.srv[name].EnableMesh(c.meshOpt)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range domino.MeshLinksFor(c.topo, name) {
		if err := m.Add(l); err != nil {
			log.Fatal(err)
		}
	}
	c.mesh[name] = m
}

// kill closes one server; restart boots it again from the same data
// directory (new port) and rejoins it to the mesh.
func (c *w8Cluster) kill(name string) {
	if err := c.srv[name].Close(); err != nil {
		log.Fatal(err)
	}
	delete(c.srv, name)
	delete(c.mesh, name)
}

func (c *w8Cluster) restart(name string, plan faultnet.Plan) {
	c.boot(name, plan)
	c.setPeers()
	c.startMesh(name)
}

func (c *w8Cluster) churn(on bool) {
	for _, fn := range c.nets {
		if on {
			fn.Enable()
		} else {
			fn.Disable()
		}
	}
}

func (c *w8Cluster) write(name string, n int) {
	db, ok := c.srv[name].DB(w8Path)
	if !ok {
		log.Fatalf("w8: %s lost %s", name, w8Path)
	}
	sess := db.Session("ada")
	for i := 0; i < n; i++ {
		doc := domino.NewDocument()
		doc.SetText("Subject", fmt.Sprintf("%s doc %d", name, i))
		doc.SetNumber("Priority", float64(i%5))
		if err := sess.Create(doc); err != nil {
			log.Fatal(err)
		}
	}
}

func (c *w8Cluster) databases() map[string]*domino.Database {
	out := map[string]*domino.Database{}
	for name, s := range c.srv {
		if db, ok := s.DB(w8Path); ok {
			out[name] = db
		}
	}
	return out
}

// waitConverged polls the convergence audit; it returns the elapsed time
// and whether the replicas converged before the deadline.
func (c *w8Cluster) waitConverged(timeout time.Duration) (time.Duration, mesh.Audit) {
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		audit, err := mesh.AuditConvergence(c.databases())
		if err != nil {
			log.Fatal(err)
		}
		if audit.Converged || time.Now().After(deadline) {
			return time.Since(start), audit
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *w8Cluster) close() {
	for _, s := range c.srv {
		s.Close()
	}
	os.RemoveAll(c.base)
}

// w8Churn runs one topology through the churn schedule: writes under
// drops/severs with one node partitioned, a mate killed mid-churn and
// restarted, then a clean-network convergence measurement.
func w8Churn(topoName string, servers, docsPer int, quick bool) w8Result {
	names := make([]string, servers)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	// Base churn: random connect drops, mid-stream severs, small delays.
	// names[1] additionally sits behind a near-total inbound partition.
	base := faultnet.Plan{Seed: 11, DropProb: 0.05, SeverProb: 0.01,
		DelayProb: 0.05, MaxDelay: 2 * time.Millisecond}
	partitioned := base
	partitioned.DropProb = 0.85
	planFor := func(name string) faultnet.Plan {
		if name == names[1] {
			return partitioned
		}
		return base
	}
	c := newW8Cluster(names, planFor)
	defer c.close()

	template := domino.MeshLink{Glob: "apps/*.nsf", Class: mesh.Hot, Interval: 50 * time.Millisecond}
	var topo []domino.TopoLink
	switch topoName {
	case "ring":
		topo = mesh.Ring(names, template)
	case "hub-spoke":
		topo = mesh.HubSpoke(names[0], names[1:], template)
	default:
		log.Fatalf("w8: unknown topology %q", topoName)
	}
	c.applyTopology(topo)
	c.churn(true)

	// First wave of writes on every server, under faults.
	for _, name := range names {
		c.write(name, docsPer/2)
	}
	settle := 300 * time.Millisecond
	if quick {
		settle = 150 * time.Millisecond
	}
	time.Sleep(settle)

	// Kill a mate mid-churn (never the partitioned node — its outage is the
	// partition's job; never the hub, which would disconnect a spoke mesh).
	victim := names[2]
	c.kill(victim)
	for _, name := range names {
		if name != victim {
			c.write(name, docsPer-docsPer/2)
		}
	}
	time.Sleep(settle)
	c.restart(victim, base)
	c.write(victim, docsPer-docsPer/2)

	// Heal the network and measure time to convergence.
	c.churn(false)
	elapsed, audit := c.waitConverged(90 * time.Second)

	res := w8Result{
		Topology: topoName, Servers: servers, Links: len(topo),
		Docs:       servers * docsPer,
		Converged:  audit.Converged,
		ConvergeMs: float64(elapsed.Nanoseconds()) / 1e6,
		KilledMate: victim,
	}
	for _, fp := range audit.Fingerprints {
		res.SpuriousConflicts += fp.Conflicts
	}
	for _, m := range c.mesh {
		for _, st := range m.Status() {
			res.Rounds += st.Rounds
			res.LinkFailures += st.Failures
			res.NotesIn += st.NotesIn
			res.NotesOut += st.NotesOut + st.Shipped
			res.BytesIn += st.BytesIn
			res.BytesOut += st.BytesOut
		}
	}
	for _, fn := range c.nets {
		st := fn.Stats()
		res.FaultDrops += st.Drops
		res.FaultSevers += st.Severs
	}
	return res
}

// w8Selective runs the selection-stub phase: a two-server link whose
// selection formula excludes low-priority documents. A document edited out
// of the selection must land as a selection stub at the destination — not
// silently linger — and the fingerprints must still converge.
func w8Selective(docs int) w8Result {
	names := []string{"src", "dst"}
	c := newW8Cluster(names, func(string) faultnet.Plan { return faultnet.Plan{} })
	defer c.close()
	link := domino.MeshLink{
		Name: "sel-link", Peer: "dst",
		Glob: "apps/*.nsf", Class: mesh.Hot, Interval: 50 * time.Millisecond,
		Formula: "Priority >= 2",
	}
	c.applyTopology([]domino.TopoLink{{Server: "src", Link: link}})

	srcDB, _ := c.srv["src"].DB(w8Path)
	sess := srcDB.Session("ada")
	var edited []*domino.Note
	for i := 0; i < docs; i++ {
		doc := domino.NewDocument()
		doc.SetText("Subject", fmt.Sprintf("sel doc %d", i))
		doc.SetNumber("Priority", 3)
		if err := sess.Create(doc); err != nil {
			log.Fatal(err)
		}
		if i%2 == 0 {
			edited = append(edited, doc)
		}
	}
	if _, audit := c.waitConverged(30 * time.Second); !audit.Converged {
		log.Fatal("w8 selective: initial convergence failed")
	}
	// Edit half the documents out of the selection.
	for _, doc := range edited {
		doc.SetNumber("Priority", 0)
		if err := sess.Update(doc); err != nil {
			log.Fatal(err)
		}
	}
	elapsed, audit := c.waitConverged(30 * time.Second)

	dstDB, _ := c.srv["dst"].DB(w8Path)
	stubs := 0
	for _, doc := range edited {
		if n, err := dstDB.RawGet(doc.OID.UNID); err == nil && n.IsSelStub() {
			stubs++
		}
	}
	res := w8Result{
		Topology: "selective", Servers: 2, Links: 1, Docs: docs,
		Converged:  audit.Converged,
		ConvergeMs: float64(elapsed.Nanoseconds()) / 1e6,
		SelStubs:   stubs,
	}
	for _, fp := range audit.Fingerprints {
		res.SpuriousConflicts += fp.Conflicts
	}
	for _, m := range c.mesh {
		for _, st := range m.Status() {
			res.Rounds += st.Rounds
			res.NotesIn += st.NotesIn
			res.NotesOut += st.NotesOut + st.Shipped
		}
	}
	if stubs != len(edited) {
		fmt.Printf("  !! only %d/%d deselected docs observed as selection stubs\n", stubs, len(edited))
	}
	return res
}

const meshBaselineFile = "BENCH_mesh.json"

// loadMeshBaseline reads the committed W8 baseline (nil when absent).
func loadMeshBaseline() []w8Result {
	raw, err := os.ReadFile(meshBaselineFile)
	if err != nil {
		return nil
	}
	var results []w8Result
	if err := json.Unmarshal(raw, &results); err != nil {
		return nil
	}
	return results
}

// W8 drift tolerances: convergence time is wall-clock over a faulted
// network with breaker cooldowns in the path, so the guard is generous —
// it hunts a broken scheduler (convergence taking many cooldown cycles or
// never finishing), not jitter.
const (
	w8DriftRatio = 3.0
	w8FloorMs    = 500.0
)

// guardW8 re-runs the ring churn at quick sizes: the convergence and
// zero-spurious-conflict invariants must hold outright, and time to
// convergence is checked against the committed BENCH_mesh.json.
func guardW8(t *table) string {
	var want float64
	for _, r := range loadMeshBaseline() {
		if r.Topology == "ring" {
			want = r.ConvergeMs
		}
	}
	if want == 0 {
		return "W8 ring baseline missing; run `make bench-mesh` and commit " + meshBaselineFile
	}
	got := 0.0
	for trial := 0; trial < driftTrials; trial++ {
		r := w8Churn("ring", 4, 6, true)
		if !r.Converged {
			return "W8 ring replicas failed to converge"
		}
		if r.SpuriousConflicts > 0 {
			return fmt.Sprintf("W8 ring produced %d spurious conflicts", r.SpuriousConflicts)
		}
		if trial == 0 || r.ConvergeMs < got {
			got = r.ConvergeMs
		}
	}
	verdict := "ok"
	msg := ""
	if got > want*w8DriftRatio && got > want+w8FloorMs {
		verdict = "REGRESSED"
		msg = fmt.Sprintf("W8 ring convergence %.0fms vs baseline %.0fms", got, want)
	}
	t.add("W8 ring convergence", fmt.Sprintf("%.0fms", want), fmt.Sprintf("%.0fms", got), verdict)
	return msg
}

func runW8(quick bool) {
	servers := pick(quick, 8, 4)
	docsPer := pick(quick, 12, 6)
	var results []w8Result

	tab := newTable("topology", "servers", "links", "docs", "converged", "converge ms",
		"conflicts", "rounds", "fail", "in", "out", "drops", "severs", "killed")
	for _, topoName := range []string{"ring", "hub-spoke"} {
		r := w8Churn(topoName, servers, docsPer, quick)
		results = append(results, r)
		tab.add(r.Topology, r.Servers, r.Links, r.Docs, fmt.Sprint(r.Converged),
			fmt.Sprintf("%.0f", r.ConvergeMs), r.SpuriousConflicts,
			fmt.Sprint(r.Rounds), fmt.Sprint(r.LinkFailures),
			fmt.Sprint(r.NotesIn), fmt.Sprint(r.NotesOut),
			fmt.Sprint(r.FaultDrops), fmt.Sprint(r.FaultSevers), r.KilledMate)
	}
	selDocs := pick(quick, 12, 6)
	sel := w8Selective(selDocs)
	results = append(results, sel)
	tab.add(sel.Topology, sel.Servers, sel.Links, sel.Docs, fmt.Sprint(sel.Converged),
		fmt.Sprintf("%.0f", sel.ConvergeMs), sel.SpuriousConflicts,
		fmt.Sprint(sel.Rounds), "0", fmt.Sprint(sel.NotesIn), fmt.Sprint(sel.NotesOut),
		"0", "0", "")
	tab.print()

	bad := false
	for _, r := range results {
		if !r.Converged || r.SpuriousConflicts > 0 {
			bad = true
		}
	}
	if sel.SelStubs != (selDocs+1)/2 {
		bad = true
	}
	if bad {
		fmt.Println("  !! convergence audit FAILED (non-converged replicas, spurious conflicts, or missing selection stubs)")
	} else {
		fmt.Println("  (invariants: identical fingerprints on every replica, zero spurious conflicts,")
		fmt.Printf("   every deselected document observed as a selection stub — %d/%d)\n",
			sel.SelStubs, sel.SelStubs)
	}

	f, err := os.Create(meshBaselineFile)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Println("  baseline written to " + meshBaselineFile)
	if bad {
		os.Exit(1)
	}
}
