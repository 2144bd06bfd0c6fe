// Package server implements the Domino server: a data directory of NSF
// databases exposed over the wire protocol, with authentication against
// the directory and background router and replicator tasks.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/mesh"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/wire"
)

// Options configure a server.
type Options struct {
	// Name is the server's name, e.g. "hub". It should exist in the
	// directory (with a secret) so peers can authenticate to it and mail
	// can address it.
	Name string
	// DataDir is the directory holding the server's databases.
	DataDir string
	// Directory is the shared user/group registry.
	Directory *dir.Directory
	// Clock supplies time; nil uses the wall clock.
	Clock *clock.Clock
	// FieldMerge enables field-level conflict merging for replication
	// applies on this server.
	FieldMerge bool
	// Peers maps remote server names to their addresses for mail
	// forwarding.
	Peers map[string]string
	// PeerSecret authenticates this server to its peers (looked up in
	// their directories under Name).
	PeerSecret string
	// AdvertiseAddr is the address placement resolves report for this
	// server (OpResolve home sets, WrongMate redirects). Empty uses the
	// bound listener address, which is right for single-host tests but
	// not behind NAT or 0.0.0.0 binds.
	AdvertiseAddr string
	// IdleTimeout bounds how long a connection with no request in flight
	// may sit without delivering a complete request frame before the
	// server drops it; it also bounds how long a half-sent frame can stall
	// the connection. 0 uses the 5m default; negative disables the
	// deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response frame. 0 uses the 30s
	// default; negative disables the deadline.
	WriteTimeout time.Duration
	// SyncWAL fsyncs every database's WAL on every operation (per-database
	// store options can also turn this on individually).
	SyncWAL bool
	// GroupCommitWindow enables group commit for every database the server
	// opens: concurrent committers share one WAL force instead of paying one
	// fsync each (see store.Options.GroupCommitWindow). 200µs is a good
	// value with SyncWAL on. Per-database store options take precedence.
	GroupCommitWindow time.Duration
	// ArchiveLogDir, when non-empty, turns on WAL archiving for every
	// database the server opens: each database's sealed log segments go to
	// <ArchiveLogDir>/<dbpath>.walog, preserving complete history for
	// incremental backup verification and point-in-time recovery.
	ArchiveLogDir string
	// MaxInFlight bounds concurrently executing requests across all
	// connections (admission control). Requests beyond it wait up to
	// AdmitWait for a slot and are then shed with a busy response carrying
	// the availability index. 0 uses 256; negative disables admission
	// control entirely.
	MaxInFlight int
	// AdmitWait bounds how long an arriving request may queue for an
	// execution slot before being shed. 0 uses 100ms; negative sheds
	// immediately once the pool is full.
	AdmitWait time.Duration
	// TargetLatency anchors the availability index's latency term: a
	// dispatch-latency EWMA at or below it costs nothing, ten times it
	// saturates the term. 0 uses 25ms.
	TargetLatency time.Duration
	// MaxPageRows caps rows per bulk-read page (view pages, scan pages,
	// search pages) when the client does not ask for less. 0 uses 4096.
	MaxPageRows int
	// MaxPageBytes caps the encoded size of one bulk-read page; a page
	// closes as soon as its response crosses this, so no response frame can
	// approach wire.MaxFrame no matter how wide the rows are. 0 uses 4 MiB.
	MaxPageBytes int
	// PeerOpBudget, when > 0, stamps a deadline budget on every operation
	// this server issues to its peers — mesh replication rounds and
	// hot-link ships — so one stalled peer cannot pin a replication
	// session or a ship loop indefinitely; the peer
	// sheds or aborts the op when the budget is spent. 0 disables peer
	// budgets (seed behaviour).
	PeerOpBudget time.Duration
}

// Server is a running Domino-style server.
type Server struct {
	opts  Options
	clock *clock.Clock

	mu      sync.Mutex
	dbs     map[string]*core.Database
	mesh    *mesh.Mesh
	conns   map[net.Conn]struct{}
	backups map[string]BackupStatus

	monitor monitorState

	admission admissionState
	draining  atomic.Bool

	// putSess maps a pipelined-put session key (user, client key, database)
	// to the highest batch sequence durably applied, so a batch re-sent
	// after a reconnect skips its already-applied prefix. The map is
	// bounded: beyond maxPutSessions the oldest session is evicted (FIFO),
	// which only costs an evicted client its replay protection, never
	// correctness of fresh batches.
	putSessMu sync.Mutex
	putSess   map[string]uint64
	putSessQ  []string
	// testPreDispatch, when set by tests before Serve, runs at the top of
	// every dispatched request with its context — the hook for injecting
	// panics and delays and for holding a request in flight.
	testPreDispatch func(ctx context.Context, op wire.Op, budget time.Duration)

	router *router.Router

	ln     net.Listener
	wg     sync.WaitGroup
	closed bool
}

// New creates a server, its data directory, and its mail.box.
func New(opts Options) (*Server, error) {
	if opts.Directory == nil {
		return nil, errors.New("server: a directory is required")
	}
	ck := opts.Clock
	if ck == nil {
		ck = clock.New()
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	switch {
	case opts.IdleTimeout == 0:
		opts.IdleTimeout = 5 * time.Minute
	case opts.IdleTimeout < 0:
		opts.IdleTimeout = 0
	}
	switch {
	case opts.WriteTimeout == 0:
		opts.WriteTimeout = 30 * time.Second
	case opts.WriteTimeout < 0:
		opts.WriteTimeout = 0
	}
	switch {
	case opts.MaxInFlight == 0:
		opts.MaxInFlight = 256
	case opts.MaxInFlight < 0:
		opts.MaxInFlight = 0 // admission disabled
	}
	switch {
	case opts.AdmitWait == 0:
		opts.AdmitWait = 100 * time.Millisecond
	case opts.AdmitWait < 0:
		opts.AdmitWait = 0 // shed immediately at saturation
	}
	if opts.TargetLatency <= 0 {
		opts.TargetLatency = 25 * time.Millisecond
	}
	if opts.MaxPageRows <= 0 {
		opts.MaxPageRows = 4096
	}
	if opts.MaxPageBytes <= 0 {
		opts.MaxPageBytes = 4 << 20
	}
	s := &Server{
		opts:  opts,
		clock: ck,
		dbs:   make(map[string]*core.Database),
		conns: make(map[net.Conn]struct{}),
	}
	s.admission.init(opts)
	mailbox, err := s.OpenDB("mail.box", core.Options{Title: "Mail Router Box"})
	if err != nil {
		return nil, err
	}
	s.router = &router.Router{
		ServerName:   opts.Name,
		Mailbox:      mailbox,
		Directory:    opts.Directory,
		OpenMailFile: func(path string) (*core.Database, error) { return s.OpenDB(path, core.Options{Title: path}) },
		Forward:      s.forwardMail,
	}
	return s, nil
}

// Name returns the server name.
func (s *Server) Name() string { return s.opts.Name }

// SetPeers replaces the peer address map (server name -> address). Useful
// when peer addresses are only known after the peers have started.
func (s *Server) SetPeers(peers map[string]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]string, len(peers))
	for name, addr := range peers {
		m[strings.ToLower(name)] = addr
	}
	s.opts.Peers = m
}

// Clock returns the server clock.
func (s *Server) Clock() *clock.Clock { return s.clock }

// Router returns the mail router.
func (s *Server) Router() *router.Router { return s.router }

// cleanDBPath normalizes and validates a database path within the data dir.
func cleanDBPath(path string) (string, error) {
	p := filepath.ToSlash(filepath.Clean(path))
	if p == "." || p == "" || strings.HasPrefix(p, "../") || strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("server: invalid database path %q", path)
	}
	return p, nil
}

// OpenDB opens (or creates) a database by data-directory-relative path.
// Databases stay open for the life of the server.
func (s *Server) OpenDB(path string, opts core.Options) (*core.Database, error) {
	key, err := cleanDBPath(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if db, ok := s.dbs[key]; ok {
		return db, nil
	}
	full := filepath.Join(s.opts.DataDir, filepath.FromSlash(key))
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return nil, err
	}
	opts.Directory = s.opts.Directory
	opts.Clock = s.clock
	if s.opts.SyncWAL {
		opts.Store.SyncWAL = true
	}
	if s.opts.GroupCommitWindow > 0 && opts.Store.GroupCommitWindow == 0 {
		opts.Store.GroupCommitWindow = s.opts.GroupCommitWindow
	}
	if s.opts.ArchiveLogDir != "" && opts.Store.ArchiveDir == "" {
		opts.Store.ArchiveDir = s.archiveDirFor(key)
	}
	db, err := core.Open(full, opts)
	if err != nil {
		return nil, err
	}
	s.dbs[key] = db
	m := s.mesh
	s.mu.Unlock()
	if m != nil && !localOnlyDBs[key] {
		m.Attach(key, db)
	}
	s.hookMonitorDB(key, db)
	s.mu.Lock()
	return db, nil
}

// maxPutSessions bounds the pipelined-put cursor map.
const maxPutSessions = 4096

// putCursor returns the highest durably-applied batch sequence for a
// pipelined-put session (0 if unknown).
func (s *Server) putCursor(key string) uint64 {
	s.putSessMu.Lock()
	defer s.putSessMu.Unlock()
	return s.putSess[key]
}

// advancePutCursor records that every batch sequence up to seq is durably
// applied for the session. Cursors only move forward.
func (s *Server) advancePutCursor(key string, seq uint64) {
	s.putSessMu.Lock()
	defer s.putSessMu.Unlock()
	if s.putSess == nil {
		s.putSess = make(map[string]uint64)
	}
	if cur, ok := s.putSess[key]; ok {
		if seq > cur {
			s.putSess[key] = seq
		}
		return
	}
	if len(s.putSessQ) >= maxPutSessions {
		delete(s.putSess, s.putSessQ[0])
		s.putSessQ = s.putSessQ[1:]
	}
	s.putSess[key] = seq
	s.putSessQ = append(s.putSessQ, key)
}

// DB returns an already-open database.
func (s *Server) DB(path string) (*core.Database, bool) {
	key, err := cleanDBPath(path)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.dbs[key]
	return db, ok
}

// forwardMail ships a message to a peer server's mail.box over the wire.
func (s *Server) forwardMail(serverName string, msg *nsf.Note) error {
	s.mu.Lock()
	addr, ok := s.opts.Peers[strings.ToLower(serverName)]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: no address for peer %s", serverName)
	}
	c, err := wire.Dial(addr, s.opts.Name, s.opts.PeerSecret)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.MailDeposit(msg)
}

// ReplicateWith replicates a local database against the same-path database
// on a peer server over the wire.
func (s *Server) ReplicateWith(peerName, addr, dbPath string, opts repl.Options) (repl.Stats, error) {
	db, err := s.OpenDB(dbPath, core.Options{})
	if err != nil {
		return repl.Stats{}, err
	}
	c, err := wire.Dial(addr, s.opts.Name, s.opts.PeerSecret)
	if err != nil {
		return repl.Stats{}, err
	}
	defer c.Close()
	remote, err := c.OpenDB(dbPath)
	if err != nil {
		return repl.Stats{}, err
	}
	if opts.PeerName == "" {
		opts.PeerName = peerName + "!!" + dbPath
	}
	opts.Apply.FieldMerge = s.opts.FieldMerge
	stats, err := repl.Replicate(db, remote, opts)
	if err != nil {
		s.logf(LogReplication, "%s with %s failed: %v", dbPath, peerName, err)
		return stats, err
	}
	if stats.Pull.Total()+stats.Push.Total() > 0 {
		s.logf(LogReplication, "%s with %s: %s", dbPath, peerName, stats)
	}
	return stats, nil
}

// Start begins serving on addr (use "127.0.0.1:0" for tests) and returns
// the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.Serve(ln), nil
}

// Serve begins serving on an externally created listener — for example one
// wrapped by faultnet for fault-injection runs — and returns its address.
func (s *Server) Serve(ln net.Listener) string {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handleConn(conn)
		}()
	}
}

// Close stops the listener and closes all databases.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Drop live client connections so their handler goroutines unblock;
	// clients see a closed connection, as with any server restart.
	for _, c := range conns {
		c.Close()
	}
	s.stopMesh()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, db := range s.dbs {
		if err := db.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
