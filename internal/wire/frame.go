// Package wire implements the client/server and server/server protocol: a
// length-prefixed binary RPC over TCP carrying note CRUD, view reads,
// full-text queries, mail deposit, and the replication operations
// (summaries, fetch, apply). It plays the role of Notes RPC (NRPC) without
// claiming protocol compatibility.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// MaxFrame bounds a single protocol frame's payload (64 MiB).
const MaxFrame = 64 << 20

// ProtocolVersion is negotiated in the hello exchange. Version 2 replaced
// the one-shot view/search reads with paginated bulk ops (and added OpScan);
// version 3 dropped the mesh link debounce and added ship counters to the
// mesh admin encodings; version 4 gave every frame the request-ID and
// budget header and made the session multiplexed. Each change altered
// encodings in place, so other versions are refused outright rather than
// silently misparsed.
const ProtocolVersion = 4

// Header is the fixed part of every frame. On the wire a frame is
//
//	[u32 payload-len][u32 request-id][u32 budget-ms][payload]
//
// all little-endian. A response echoes its request's ID, which is how one
// connection carries many requests at once and answers them in any order.
// Budget is the caller's remaining deadline in milliseconds at send time (0:
// none); the server turns it into the request's context deadline. Responses
// carry no budget.
type Header struct {
	ID     uint32
	Budget uint32
}

// headerLen is the encoded size of the length prefix plus Header.
const headerLen = 12

// putHeader encodes the frame header for an n-byte payload into hdr.
func putHeader(hdr []byte, n int, h Header) error {
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], h.ID)
	binary.LittleEndian.PutUint32(hdr[8:12], h.Budget)
	return nil
}

// frameChunk caps the first allocation for a frame body. Bigger frames grow
// the buffer only as their bytes actually arrive, so a header that declares
// a huge frame and then stops costs at most this much, not the declared
// length.
const frameChunk = 512 << 10

// ReadFrame reads one frame.
func ReadFrame(r io.Reader) (Header, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Header{}, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > MaxFrame {
		return Header{}, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	h := Header{ID: binary.LittleEndian.Uint32(hdr[4:8]), Budget: binary.LittleEndian.Uint32(hdr[8:12])}
	buf := make([]byte, 0, min(n, frameChunk))
	for len(buf) < n {
		// Each step at most doubles what has arrived so far.
		step := min(n-len(buf), max(len(buf), frameChunk))
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Header{}, nil, err
		}
		buf = buf[:len(buf)+step]
	}
	return h, buf, nil
}

// Op codes. A response echoes the request op with the high bit set.
type Op byte

// Protocol operations.
const (
	OpHello Op = iota + 1
	OpOpenDB
	OpGetNote
	OpCreateNote
	OpUpdateNote
	OpDeleteNote
	OpViewRows
	OpSearch
	OpReplicaID
	OpSummaries
	OpFetch
	OpApply
	OpMailDeposit
	OpDBInfo
	// OpAvailability reports the server's availability index and admission
	// state. It is answered before authentication (it carries only load
	// figures), so failover clients can probe mates cheaply, and it is
	// answered even while the server is draining.
	OpAvailability
	// OpPutBatch stores N documents in one round trip (create-or-update,
	// in order) through a single admission slot, with the server amortizing
	// the WAL force across the batch. The request carries a client session
	// key and a base sequence number; the slim ack carries the server's
	// durable cursor for that session, so a batch re-sent after a reconnect
	// skips the already-applied prefix — exactly-once without per-op acks.
	OpPutBatch
	// OpResolve asks the server where a database lives: the response carries
	// the placement generation and the (mate name, address) home set from the
	// directory. Like OpAvailability it is answered before authentication and
	// while draining — placement is routing metadata, not data — so failover
	// clients can resolve without a session. An empty path lists every
	// placement record.
	OpResolve
	// OpMeshStatus lists the server's replication-mesh links with their
	// live scheduling and transfer counters.
	OpMeshStatus
	// OpMeshAdd adds a mesh link at runtime. The link's selection formula
	// is validated server-side before the link starts.
	OpMeshAdd
	// OpMeshRemove removes a mesh link by name; its replication cursors
	// persist, so re-adding the link resumes incrementally.
	OpMeshRemove
	// OpScan is the NSFSearch-style bulk read: a server-side scan filtered
	// by a selection formula, projecting only the requested items as typed
	// values, returned in paginated batches. Each page carries an opaque
	// resume cursor (the last NoteID delivered, bound to the serving
	// server), so a scan interrupted by a reconnect continues where it
	// stopped instead of restarting. Page size is admission-aware: a loaded
	// server serves smaller pages.
	OpScan
	// OpCancel withdraws an in-flight request: its header carries the ID
	// of the request to cancel and its payload is the op byte alone. The
	// server cancels that request's context and sends no response; a
	// cancel for a request already answered is ignored.
	OpCancel
)

// respBit marks response frames.
const respBit = 0x80

// Status codes in responses.
const (
	StatusOK byte = iota
	StatusError
	// StatusBusy is an admission-control shed: the server refused to
	// execute the request (it never ran), and the response body carries
	// the server state and availability index so the client can redirect
	// to a less-loaded cluster mate.
	StatusBusy
	// StatusWrongMate is a placement redirect: this mate does not home the
	// requested database, and the request was not executed. The response
	// body carries the current placement generation and home set (same
	// encoding as OpResolve) so the client can re-route without an extra
	// round trip.
	StatusWrongMate
	// StatusDeadlineExceeded: the request's carried budget (the frame
	// header's budget-ms) ran out server-side. The one-byte body says at which
	// stage: DeadlineRefused means the server saw the budget could not
	// survive the admission queue (or was already spent on arrival) and
	// refused before executing anything — provably-never-ran, like a busy
	// shed; DeadlineAborted means the op was cancelled mid-execution and
	// may have partially taken effect. The distinction matters for retry
	// safety: an aborted write is AMBIGUOUS and must not be blindly
	// re-sent, while a refused one merely has no time left.
	StatusDeadlineExceeded
)

// Stages carried in a StatusDeadlineExceeded response body.
const (
	// DeadlineRefused: the budget expired (or could not survive the
	// admission queue) before the server executed anything.
	DeadlineRefused byte = 0
	// DeadlineAborted: the op was cancelled mid-execution; it may have
	// partially or — if only the response was lost — fully taken effect.
	DeadlineAborted byte = 1
)

// Server admission states carried in availability and busy responses.
const (
	// StateOpen: the server is accepting work normally.
	StateOpen byte = iota
	// StateRestricted: the server is quiescing/draining — it answers
	// probes but refuses new sessions and new requests.
	StateRestricted
)
