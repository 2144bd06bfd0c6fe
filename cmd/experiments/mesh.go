package main

import (
	"fmt"
	"log"
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

// w8Cluster is a mesh deployment on a rig: each server with a plan sits
// behind its own faultnet listener, and all hold one replica of w8Path.
type w8Cluster struct {
	*rig
	mesh    map[string]*domino.Mesh
	topo    []domino.TopoLink
	meshOpt domino.MeshOptions
}

func newW8Cluster(names []string, plans map[string]faultnet.Plan) *w8Cluster {
	return &w8Cluster{
		rig:  newRig(rigSpec{path: w8Path, plans: plans}, names...),
		mesh: map[string]*domino.Mesh{},
		meshOpt: domino.MeshOptions{
			Interval: 50 * time.Millisecond,
			Cooldown: 250 * time.Millisecond,
		},
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
	c.rig.kill(name)
	delete(c.mesh, name)
}

func (c *w8Cluster) restart(name string) {
	c.rig.restart(name)
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
	sess := c.db[name].Session("ada")
	for i := 0; i < n; i++ {
		doc := domino.NewDocument()
		doc.SetText("Subject", fmt.Sprintf("%s doc %d", name, i))
		doc.SetNumber("Priority", float64(i%5))
		if err := sess.Create(doc); err != nil {
			log.Fatal(err)
		}
	}
}

// waitConverged polls the convergence audit; it returns the elapsed time
// and whether the replicas converged before the deadline.
func (c *w8Cluster) waitConverged(timeout time.Duration) (time.Duration, mesh.Audit) {
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		audit, err := mesh.AuditConvergence(c.db)
		if err != nil {
			log.Fatal(err)
		}
		if audit.Converged || time.Now().After(deadline) {
			return time.Since(start), audit
		}
		time.Sleep(10 * time.Millisecond)
	}
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
	plans := map[string]faultnet.Plan{}
	for _, name := range names {
		plans[name] = base
	}
	plans[names[1]] = partitioned
	c := newW8Cluster(names, plans)
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
	c.restart(victim)
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
	c := newW8Cluster(names, nil)
	defer c.close()
	link := domino.MeshLink{
		Name: "sel-link", Peer: "dst",
		Glob: "apps/*.nsf", Class: mesh.Hot, Interval: 50 * time.Millisecond,
		Formula: "Priority >= 2",
	}
	c.applyTopology([]domino.TopoLink{{Server: "src", Link: link}})

	sess := c.db["src"].Session("ada")
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

	stubs := 0
	for _, doc := range edited {
		if n, err := c.db["dst"].RawGet(doc.OID.UNID); err == nil && n.IsSelStub() {
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
	return res
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

	bad := sel.SelStubs != (selDocs+1)/2
	for _, r := range results {
		if !r.Converged || r.SpuriousConflicts > 0 {
			bad = true
		}
	}
	if bad {
		fail("convergence audit FAILED (non-converged replicas, spurious conflicts, or %d/%d selection stubs)",
			sel.SelStubs, (selDocs+1)/2)
	} else {
		fmt.Println("  (invariants: identical fingerprints on every replica, zero spurious conflicts,")
		fmt.Printf("   every deselected document observed as a selection stub — %d/%d)\n",
			sel.SelStubs, sel.SelStubs)
	}

	benchW8.save(results)
}
