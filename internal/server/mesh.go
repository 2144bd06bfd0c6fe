package server

import (
	"fmt"
	"maps"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/repl"
	"repro/internal/wire"
)

// The replication mesh is the server's one replication engine (see
// package mesh). The server contributes the local side — its database set,
// its admission state, a wire dialer that resolves peer names through the
// Peers map, and an OpenDB hook that attaches new databases to hot links —
// and the mesh runs the links. Cluster push is config sugar over it: each
// cluster mate gets a hot Push link.

// LogMesh is the log kind for mesh scheduler events.
const LogMesh = "mesh"

// localOnlyDBs are server-private databases that never replicate.
var localOnlyDBs = map[string]bool{
	"mail.box":  true,
	LogPath:     true,
	CatalogPath: true,
}

// serverNode adapts the server to mesh.Node.
type serverNode struct{ s *Server }

func (n serverNode) Name() string { return n.s.opts.Name }

// Paths lists replicable databases: everything open except the
// server-private set (mail.box, log, catalog).
func (n serverNode) Paths() []string {
	var out []string
	for _, p := range n.s.Paths() {
		if localOnlyDBs[p] {
			continue
		}
		out = append(out, p)
	}
	return out
}

func (n serverNode) Open(path string) (*core.Database, error) {
	return n.s.OpenDB(path, core.Options{})
}

func (n serverNode) Admitted() bool { return !n.s.Draining() }

// wireSession adapts a dialed wire client to mesh.Session.
type wireSession struct{ c *wire.Client }

func (ws wireSession) Open(dbPath string) (repl.Peer, error) { return ws.c.OpenDB(dbPath) }
func (ws wireSession) Close() error                          { return ws.c.Close() }

// EnableMesh starts the replication mesh scheduler. The caller supplies
// tuning (intervals, breaker thresholds); the server fills in the node,
// the dialer (peer names resolve through the Peers map), conflict-merge
// policy, and logging. Links start empty — add them from config, a
// topology file, or the admin surface. Calling EnableMesh twice is an
// error; use Mesh() to reach the running scheduler.
func (s *Server) EnableMesh(opts mesh.Options) (*mesh.Mesh, error) {
	opts.Node = serverNode{s}
	opts.Dialer = func(peer string) (mesh.Session, error) {
		s.mu.Lock()
		addr, ok := s.opts.Peers[strings.ToLower(peer)]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("server: no address for peer %s", peer)
		}
		// Sessions fail fast and every op carries the peer budget, so a dead
		// or stalled mate fails the ship or round at once instead of pinning
		// it; the link's backoff and breaker then take over.
		c, err := wire.DialOptions(addr, s.opts.Name, s.opts.PeerSecret, wire.Options{
			MaxRetries: -1, DialTimeout: 2 * time.Second, OpBudget: s.opts.PeerOpBudget})
		if err != nil {
			return nil, err
		}
		return wireSession{c}, nil
	}
	opts.Apply.FieldMerge = s.opts.FieldMerge
	if opts.Logf == nil {
		opts.Logf = func(format string, args ...any) {
			s.logf(LogMesh, format, args...)
		}
	}
	m, err := mesh.New(opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		m.Close()
		return nil, fmt.Errorf("server: closed")
	}
	if s.mesh != nil {
		return nil, fmt.Errorf("server: mesh already enabled")
	}
	s.mesh = m
	return m, nil
}

// EnableClustering makes each mate (name -> address) a cluster mate: the
// address joins the peer map and the mesh gains the mate's ClusterLink, a
// hot Push link that ships every committed change of every replicable
// database to the mate as it happens. Changes that fail to ship are
// counted (DroppedByMate) and caught up by the link's own rounds. The mesh
// starts with default options unless EnableMesh ran first.
func (s *Server) EnableClustering(mates map[string]string) {
	s.mu.Lock()
	peers := make(map[string]string)
	maps.Copy(peers, s.opts.Peers)
	for name, addr := range mates {
		peers[strings.ToLower(name)] = addr
	}
	s.opts.Peers = peers
	s.mu.Unlock()
	m := s.Mesh()
	if m == nil {
		var err error
		if m, err = s.EnableMesh(mesh.Options{}); err != nil {
			s.logf(LogMesh, "clustering: %v", err)
			return
		}
	}
	for name := range mates {
		if err := m.Add(mesh.ClusterLink(name)); err != nil {
			s.logf(LogMesh, "clustering with %s: %v", name, err)
		}
	}
}

// DroppedByMate returns, per peer, the changes its hot links failed to
// ship and left to catch-up rounds.
func (s *Server) DroppedByMate() map[string]int {
	out := make(map[string]int)
	if m := s.Mesh(); m != nil {
		for _, st := range m.Status() {
			out[st.Peer] += int(st.Dropped)
		}
	}
	return out
}

// Mesh returns the running mesh scheduler, or nil if neither EnableMesh
// nor EnableClustering was called.
func (s *Server) Mesh() *mesh.Mesh {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mesh
}

// stopMesh stops the mesh scheduler and waits for in-flight rounds.
func (s *Server) stopMesh() {
	s.mu.Lock()
	m := s.mesh
	s.mesh = nil
	s.mu.Unlock()
	if m != nil {
		m.Close()
	}
}
