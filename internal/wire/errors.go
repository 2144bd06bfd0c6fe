package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
)

// ServerError is an application-level failure reported by the server in a
// well-formed response (bad handle, access denied, unknown path, failed
// authentication). The connection that carried it is still healthy, and
// retrying the same request would fail the same way, so ServerErrors are
// never retried.
type ServerError struct {
	Op  Op
	Msg string
}

func (e *ServerError) Error() string { return "wire: server: " + e.Msg }

// BusyError is an admission-control shed (StatusBusy): the server refused
// the request before executing it. Unlike a transport fault, the request
// definitely did NOT run, so re-sending is safe even for non-idempotent
// operations. The carried state and availability index let a failover
// client pick a better cluster mate instead of hammering a loaded one.
type BusyError struct {
	Op Op
	// State is StateOpen (overloaded but serving) or StateRestricted
	// (quiescing/draining — the server wants clients to leave).
	State byte
	// Availability is the server's availability index, 0 (saturated or
	// draining) to 100 (idle).
	Availability int
}

func (e *BusyError) Error() string {
	kind := "busy"
	if e.State == StateRestricted {
		kind = "restricted"
	}
	return fmt.Sprintf("wire: server %s (availability %d)", kind, e.Availability)
}

// ErrServerBusy matches any BusyError via errors.Is.
var ErrServerBusy = errors.New("wire: server busy")

// Is lets errors.Is(err, ErrServerBusy) match shed responses.
func (e *BusyError) Is(target error) bool { return target == ErrServerBusy }

// HomeAddr is one entry of a resolved placement: a cluster-mate name and the
// wire address it serves on (empty if the resolving server does not know it).
type HomeAddr struct {
	Name string
	Addr string
}

// WrongMateError is a placement redirect (StatusWrongMate): the contacted
// mate does not home the database, and the request was NOT executed. The
// error carries the placement generation and home set the server knows, so a
// failover client can refresh its cache and re-route; like a busy shed,
// re-sending is safe even for non-idempotent operations. A bare Client does
// not retry these — routing is the FailoverClient's job.
type WrongMateError struct {
	Op   Op
	Path string
	// Generation is the placement generation at the redirecting server.
	Generation uint64
	// Homes is the home set: the mates that do serve the database.
	Homes []HomeAddr
}

func (e *WrongMateError) Error() string {
	return fmt.Sprintf("wire: wrong mate for %s (placement generation %d, %d homes)",
		e.Path, e.Generation, len(e.Homes))
}

// ErrWrongMate matches any WrongMateError via errors.Is.
var ErrWrongMate = errors.New("wire: wrong mate")

// Is lets errors.Is(err, ErrWrongMate) match placement redirects.
func (e *WrongMateError) Is(target error) bool { return target == ErrWrongMate }

// DeadlineError is a deadline-budget expiry (client- or server-side). The
// Ambiguous flag is the whole point: an op whose budget expired BEFORE it
// was sent (or that the server refused pre-execution) provably never ran,
// but one cancelled mid-round-trip or mid-execution may have partially —
// or, with only the response lost, fully — taken effect. Clients must
// therefore never blindly re-send a non-idempotent op after an ambiguous
// expiry; this is the opposite of a BusyError, which is always safe to
// re-send. Deadline errors are never auto-retried at all: the budget that
// expired is the same budget a retry would run under.
type DeadlineError struct {
	Op Op
	// Ambiguous reports that the op may have (partially) executed.
	Ambiguous bool
	// Remote reports that the server diagnosed the expiry (vs the client
	// exhausting the budget before or during the round trip).
	Remote bool
}

func (e *DeadlineError) Error() string {
	where := "client"
	if e.Remote {
		where = "server"
	}
	kind := "before execution (not executed)"
	if e.Ambiguous {
		kind = "mid-operation (may have executed)"
	}
	return fmt.Sprintf("wire: deadline exceeded at %s %s", where, kind)
}

// ErrDeadline matches any DeadlineError via errors.Is.
var ErrDeadline = errors.New("wire: deadline exceeded")

// Is lets errors.Is(err, ErrDeadline) match budget expiries.
func (e *DeadlineError) Is(target error) bool { return target == ErrDeadline }

// ErrClosed is returned by operations on a client after Close.
var ErrClosed = errors.New("wire: client closed")

// protoError marks a framing/envelope violation (response op mismatch,
// short envelope): the byte stream is out of sync and the connection must
// be abandoned, but a fresh connection may well succeed.
type protoError struct{ msg string }

func (e *protoError) Error() string { return "wire: protocol: " + e.msg }

func protoErrorf(format string, args ...any) error {
	return &protoError{msg: fmt.Sprintf(format, args...)}
}

// Retryable classifies an error from a wire operation: true for transport
// faults where a fresh connection plus a re-sent request can succeed
// (timeouts, resets, EOF mid-frame, refused dials, protocol desync), false
// for server-reported application errors and everything unrecognized.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return false
	}
	var wme *WrongMateError
	if errors.As(err, &wme) {
		// Retrying on the SAME connection would redirect again; only a
		// failover client, which can change mates, can make progress.
		return false
	}
	var be *BusyError
	if errors.As(err, &be) {
		// The request was shed before execution; a retry (after backoff,
		// or on another mate) can succeed.
		return true
	}
	var pe *protoError
	if errors.As(err, &pe) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		// Covers *net.OpError (resets, refusals, injected faultnet
		// faults) and deadline expiries.
		return true
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNABORTED) {
		return true
	}
	return false
}
