// Package domino is the public API of the Domino/Notes reproduction: a
// replicated, semi-structured document database with views, an @formula
// language, per-database ACLs with Reader/Author items, full-text search,
// mail routing, agents, and a client/server wire protocol.
//
// The package is a thin facade over the internal subsystems; see DESIGN.md
// for the architecture and EXPERIMENTS.md for the measured reproduction of
// the paper's architectural claims.
//
// Quick start:
//
//	db, err := domino.Open("discussion.nsf", domino.Options{Title: "Discussion"})
//	...
//	sess := db.Session("Ada Lovelace")
//	doc := domino.NewDocument()
//	doc.SetText("Form", "Topic")
//	doc.SetText("Subject", "hello groupware")
//	err = sess.Create(doc)
package domino

import (
	"io"
	"time"

	"repro/internal/acl"
	"repro/internal/agent"
	"repro/internal/backup"
	"repro/internal/changefeed"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/formula"
	"repro/internal/ft"
	"repro/internal/mesh"
	"repro/internal/nsf"
	"repro/internal/place"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/view"
	"repro/internal/wire"
)

// Core database types.
type (
	// Database is an open NSF database.
	Database = core.Database
	// Session is a user's ACL-checked handle on a database.
	Session = core.Session
	// Options configure Open.
	Options = core.Options
	// Note is a document: a bag of typed items with identity and version.
	Note = nsf.Note
	// Item is a named, typed value on a note.
	Item = nsf.Item
	// Value is a typed list value.
	Value = nsf.Value
	// UNID is a universal note ID, shared across replicas.
	UNID = nsf.UNID
	// ReplicaID identifies a replica set.
	ReplicaID = nsf.ReplicaID
	// Timestamp is a nanosecond wall/logical timestamp.
	Timestamp = nsf.Timestamp
	// Clock issues strictly monotonic timestamps.
	Clock = clock.Clock
	// StoreOptions tune the storage layer (WAL sync, group commit,
	// checkpointing); set on Options.Store.
	StoreOptions = store.Options
	// StoreStats reports storage statistics.
	StoreStats = store.Stats
	// DatabaseStats combines storage and change-propagation statistics
	// (returned by Database.Stats).
	DatabaseStats = core.Stats
	// ChangefeedStats reports a database's change-propagation position and
	// per-consumer lag.
	ChangefeedStats = changefeed.Stats
)

// Errors.
var (
	// ErrNotFound reports a missing note.
	ErrNotFound = core.ErrNotFound
	// ErrAccessDenied reports insufficient access rights.
	ErrAccessDenied = core.ErrAccessDenied
)

// Item flags.
const (
	FlagSummary = nsf.FlagSummary
	FlagReaders = nsf.FlagReaders
	FlagAuthors = nsf.FlagAuthors
	FlagNames   = nsf.FlagNames
)

// Note classes.
const (
	ClassDocument = nsf.ClassDocument
	ClassView     = nsf.ClassView
	ClassACL      = nsf.ClassACL
	ClassAgent    = nsf.ClassAgent
)

// Open opens or creates a database file.
func Open(path string, opts Options) (*Database, error) { return core.Open(path, opts) }

// NewDocument returns a fresh document note with a new UNID.
func NewDocument() *Note { return nsf.NewNote(nsf.ClassDocument) }

// NewReplicaID returns a fresh replica identity; pass the same value to two
// Opens to create a replica pair.
func NewReplicaID() ReplicaID { return nsf.NewReplicaID() }

// ParseUNID parses the 32-hex-digit form printed by UNID.String.
func ParseUNID(s string) (UNID, error) { return nsf.ParseUNID(s) }

// Value constructors.
var (
	// TextValue builds a text (list) value.
	TextValue = nsf.TextValue
	// NumberValue builds a number (list) value.
	NumberValue = nsf.NumberValue
	// TimeValue builds a time (list) value.
	TimeValue = nsf.TimeValue
)

// Views.
type (
	// ViewDefinition describes a view: selection formula plus columns.
	ViewDefinition = view.Definition
	// ViewColumn describes one view column.
	ViewColumn = view.Column
	// ViewIndex is a maintained view index.
	ViewIndex = view.Index
	// ViewRow is a rendered view row (category header or entry).
	ViewRow = view.Row
	// ViewEntry is one document's row in a view.
	ViewEntry = view.Entry
)

// NewView builds a view definition from a selection formula source and
// columns.
func NewView(name, selection string, cols ...ViewColumn) (*ViewDefinition, error) {
	return view.NewDefinition(name, selection, cols...)
}

// Formulas.
type (
	// Formula is a compiled @formula program.
	Formula = formula.Formula
	// FormulaContext supplies the evaluation environment.
	FormulaContext = formula.Context
)

// CompileFormula compiles @formula source.
func CompileFormula(src string) (*Formula, error) { return formula.Compile(src) }

// Access control.
type (
	// ACL is a database access control list.
	ACL = acl.ACL
	// ACLLevel is an access level (NoAccess … Manager).
	ACLLevel = acl.Level
	// Identity is a user's resolved access context.
	Identity = acl.Identity
	// Directory is the user/group registry (names.nsf).
	Directory = dir.Directory
	// User is a directory entry.
	User = dir.User
)

// Access levels.
const (
	NoAccess  = acl.NoAccess
	Depositor = acl.Depositor
	Reader    = acl.Reader
	Author    = acl.Author
	Editor    = acl.Editor
	Designer  = acl.Designer
	Manager   = acl.Manager
)

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return dir.New() }

// Replication.
type (
	// ReplicationOptions configure a replication session.
	ReplicationOptions = repl.Options
	// ReplicationStats report a session's outcome.
	ReplicationStats = repl.Stats
	// ApplyOptions tune conflict handling.
	ApplyOptions = repl.ApplyOptions
	// Peer is one side of a replication session.
	Peer = repl.Peer
	// LocalPeer adapts a local database to Peer.
	LocalPeer = repl.LocalPeer
)

// Replicate runs one replication session between a local database and a
// peer (local or remote).
func Replicate(local *Database, peer Peer, opts ReplicationOptions) (ReplicationStats, error) {
	return repl.Replicate(local, peer, opts)
}

// Full-text search.
type (
	// SearchResult is one full-text hit.
	SearchResult = ft.Result
)

// Server and wire protocol.
type (
	// Server is a Domino-style server over a data directory.
	Server = server.Server
	// ServerOptions configure a server.
	ServerOptions = server.Options
	// ServerHealth is a server's availability snapshot (state, index,
	// in-flight/queued counts, latency EWMA, shed and panic counters).
	ServerHealth = server.Health
	// Client is an authenticated wire connection.
	Client = wire.Client
	// ClientOptions tune client timeouts, retries, and backoff.
	ClientOptions = wire.Options
	// RemoteDB is a database opened over the wire; it implements Peer.
	RemoteDB = wire.RemoteDB
	// FailoverClient is a cluster-aware client: it holds a list of cluster
	// mates with one multiplexed session each, probes their availability,
	// and transparently fails over — open handles re-open lazily on the new
	// mate — when the current mate dies or sheds work. Callers sharing one
	// client run concurrently.
	FailoverClient = wire.FailoverClient
	// FailoverOptions tune mate selection, circuit breaking, and probing.
	FailoverOptions = wire.FailoverOptions
	// FailoverStats count failovers, busy redirects, and probes.
	FailoverStats = wire.FailoverStats
	// FailoverDB is a database handle that survives mate failover; it
	// implements Peer.
	FailoverDB = wire.FailoverDB
	// AvailabilityInfo is a server's self-reported availability snapshot.
	AvailabilityInfo = wire.AvailabilityInfo
	// BusyError is a shed response: the server refused the request before
	// executing it, carrying its state and availability index.
	BusyError = wire.BusyError
	// DeadlineError is a deadline-budget expiry: Ambiguous distinguishes
	// "provably never executed" (safe to re-send) from "may have executed"
	// (re-send only idempotent ops); Remote tells whether the server or the
	// client made the call.
	DeadlineError = wire.DeadlineError
	// RemoteViewRow is one rendered remote view row; IsCategory marks
	// synthesized category headers explicitly. (ViewRow is the local
	// rendering's row type.)
	RemoteViewRow = wire.ViewRow
	// ViewPage is one paginated page of a rendered remote view.
	ViewPage = wire.ViewPage
	// ScanOptions parameterize a bulk scan: selection formula, projected
	// columns, and page size.
	ScanOptions = wire.ScanOptions
	// ScanRow is one projected document from a bulk scan, with typed
	// item values.
	ScanRow = wire.ScanRow
	// ScanPage is one page of a bulk scan with its opaque resume cursor.
	ScanPage = wire.ScanPage
	// SearchHit is one paginated full-text hit with optional pre-joined
	// summary column values.
	SearchHit = wire.SearchHit
	// SearchPage is one page of ranked full-text hits.
	SearchPage = wire.SearchPage
	// Router moves mail from mail.box to destinations.
	Router = router.Router
)

// ErrServerBusy matches any BusyError via errors.Is: the request was shed
// by admission control and provably never executed, so it is always safe
// to re-send.
var ErrServerBusy = wire.ErrServerBusy

// ErrDeadline matches any DeadlineError via errors.Is: the operation's
// deadline budget ran out. Check the DeadlineError's Ambiguous field
// before re-sending a non-idempotent operation.
var ErrDeadline = wire.ErrDeadline

// NewServer creates a server over a data directory.
func NewServer(opts ServerOptions) (*Server, error) { return server.New(opts) }

// Dial connects and authenticates to a server with default client options.
func Dial(addr, user, secret string) (*Client, error) { return wire.Dial(addr, user, secret) }

// DialOptions is Dial with explicit timeout/retry/backoff options.
func DialOptions(addr, user, secret string, opts ClientOptions) (*Client, error) {
	return wire.DialOptions(addr, user, secret, opts)
}

// DialFailover connects to the first reachable cluster mate in addrs; the
// returned client fails over to other mates on transport errors and busy
// sheds, opening each database handle on a mate the first time an
// operation lands there.
func DialFailover(addrs []string, user, secret string, opts FailoverOptions) (*FailoverClient, error) {
	return wire.DialFailover(addrs, user, secret, opts)
}

// ProbeAvailability asks a server for its availability snapshot without
// authenticating (the probe is answered even in RESTRICTED drain mode). A
// nil dialer uses net.Dial.
func ProbeAvailability(addr string, timeout time.Duration) (AvailabilityInfo, error) {
	return wire.ProbeAvailability(addr, nil, timeout)
}

// RetryableError reports whether err is a transient transport failure that
// a retry on a fresh connection may cure (server-reported errors are not).
func RetryableError(err error) bool { return wire.Retryable(err) }

// Replication mesh.
type (
	// Mesh schedules a server's replication links (see Server.EnableMesh).
	Mesh = mesh.Mesh
	// MeshOptions tune the mesh scheduler's defaults and breaker.
	MeshOptions = mesh.Options
	// MeshLink is one replication edge: peer, database glob, selection
	// formula, direction, and schedule class.
	MeshLink = mesh.Link
	// MeshLinkStatus is a link's live scheduling and transfer state.
	MeshLinkStatus = mesh.LinkStatus
	// TopoLink is one line of a mesh topology file: a link plus the server
	// that runs it.
	TopoLink = mesh.TopoLink
	// Fingerprint digests a replica's (UNID, Seq, SeqTime) set for the
	// convergence audit.
	Fingerprint = mesh.Fingerprint
)

// ParseTopology reads a shared mesh topology description (one link per
// line); each server takes its own links with MeshLinksFor.
func ParseTopology(r io.Reader) ([]TopoLink, error) { return mesh.ParseTopology(r) }

// MeshLinksFor filters a topology down to the links one server runs.
func MeshLinksFor(topo []TopoLink, server string) []MeshLink { return mesh.LinksFor(topo, server) }

// FingerprintDB digests a database's document (UNID, Seq, SeqTime) set;
// converged replicas — full or selective — have equal fingerprints.
func FingerprintDB(db *Database) (Fingerprint, error) { return mesh.FingerprintDB(db) }

// Placement and rebalancing.
type (
	// Placement is a directory placement record: which cluster mates home
	// a database, stamped with a compare-and-swap generation.
	Placement = dir.Placement
	// ResolveInfo is a placement record resolved over the wire.
	ResolveInfo = wire.ResolveInfo
	// HomeAddr names one home mate and its address.
	HomeAddr = wire.HomeAddr
	// WrongMateError is a placement redirect: the mate does not home the
	// database and answers with the authoritative home set instead of
	// executing the request.
	WrongMateError = wire.WrongMateError
	// MoveOptions tune a live database move.
	MoveOptions = place.MoveOptions
	// MoveResult describes a committed move or re-home.
	MoveResult = place.MoveResult
	// RecoverOptions tune re-homing a database off a dead mate.
	RecoverOptions = place.RecoverOptions
)

var (
	// ErrWrongMate matches any WrongMateError via errors.Is.
	ErrWrongMate = wire.ErrWrongMate
	// ErrPlacementConflict reports a lost placement compare-and-swap:
	// another writer committed the generation first.
	ErrPlacementConflict = dir.ErrPlacementConflict
)

// MoveDatabase relocates one database from src to dst while both keep
// serving, then flips the directory placement record so clients re-route.
// Exactly one concurrent move of a database wins per generation.
func MoveDatabase(d *Directory, src, dst *Server, path string, opts MoveOptions) (MoveResult, error) {
	return place.Move(d, src, dst, path, opts)
}

// RecoverDatabase re-homes one database off a dead mate onto dst from its
// last backup image, optionally catching up from the dead data directory.
func RecoverDatabase(d *Directory, deadName string, dst *Server, path string, opts RecoverOptions) (MoveResult, error) {
	return place.Recover(d, deadName, dst, path, opts)
}

// ResolvePlacement asks a server for one database's placement without
// authenticating (answered even in RESTRICTED drain mode).
func ResolvePlacement(addr, path string, timeout time.Duration) (ResolveInfo, error) {
	return wire.ResolvePlacement(addr, path, nil, timeout)
}

// ListPlacements lists every placement record a server's directory holds.
func ListPlacements(addr string, timeout time.Duration) ([]ResolveInfo, error) {
	return wire.ListPlacements(addr, nil, timeout)
}

// Backup and media recovery.
type (
	// BackupImage describes one image in a backup set.
	BackupImage = backup.ImageInfo
	// BackupSet is a loaded backup set (a directory of chained images).
	BackupSet = backup.Set
	// RestoreOptions select the point-in-time recovery target.
	RestoreOptions = backup.RestoreOptions
	// RestoreInfo reports what a restore did.
	RestoreInfo = backup.RestoreInfo
	// BackupVerifyResult reports an offline backup-set integrity pass.
	BackupVerifyResult = backup.VerifyResult
)

// Backup image kinds.
const (
	BackupKindFull        = backup.KindFull
	BackupKindIncremental = backup.KindIncremental
)

// RestoreDatabase rebuilds a database at targetPath from the backup set at
// setDir — optionally rolling forward over archived WAL segments to a
// target USN — and opens it.
func RestoreDatabase(setDir, targetPath string, ropts RestoreOptions, opts Options) (*Database, RestoreInfo, error) {
	return core.Restore(setDir, targetPath, ropts, opts)
}

// VerifyBackupSet runs an offline integrity pass over a backup set (and,
// when archiveDir is non-empty, its log archive).
func VerifyBackupSet(setDir, archiveDir string) (*BackupVerifyResult, error) {
	return backup.VerifySet(setDir, archiveDir)
}

// OpenBackupSet loads the backup set in a directory (images sorted in
// chain order) without verifying bodies.
func OpenBackupSet(setDir string) (*BackupSet, error) { return backup.OpenSet(setDir) }

// Agents.
type (
	// Agent is a compiled agent.
	Agent = agent.Agent
	// AgentManager runs a database's agents.
	AgentManager = agent.Manager
)

// Agent triggers.
const (
	AgentOnInvoke = agent.OnInvoke
	AgentOnSave   = agent.OnSave
)

// NewAgent compiles an agent from formula sources.
func NewAgent(name, signer string, trigger agent.Trigger, selection, action string) (*Agent, error) {
	return agent.New(name, signer, trigger, selection, action)
}

// NewAgentManager loads and manages a database's agents.
func NewAgentManager(db *Database) (*AgentManager, error) { return agent.NewManager(db) }
