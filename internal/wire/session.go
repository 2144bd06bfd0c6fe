package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// session is one multiplexed connection. Any number of callers share it:
// each request goes out under the write lock with a fresh ID, one reader
// goroutine hands every response to the caller waiting on its ID, and no
// lock is held while a caller waits. A session never recovers from a
// transport fault: it dies once, failing every waiter, and the Client dials
// a new one.
type session struct {
	conn    net.Conn
	timeout time.Duration // transport timeout of one round trip

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan []byte
	err     error         // why the session died; nil while alive
	done    chan struct{} // closed when the session dies
}

func newSession(conn net.Conn, timeout time.Duration) *session {
	s := &session{conn: conn, timeout: timeout, pending: make(map[uint32]chan []byte), done: make(chan struct{})}
	go s.readLoop()
	return s
}

// readLoop delivers each response to the caller waiting on its ID. A
// response nobody waits for any more (its caller cancelled) is dropped.
func (s *session) readLoop() {
	for {
		h, payload, err := ReadFrame(s.conn)
		if err != nil {
			s.fail(fmt.Errorf("wire: receive: %w", err))
			return
		}
		s.mu.Lock()
		ch := s.pending[h.ID]
		delete(s.pending, h.ID)
		s.mu.Unlock()
		if ch != nil {
			ch <- payload
		}
	}
}

// fail kills the session with err (first cause wins): the connection is
// closed, never leaked, and every waiter returns.
func (s *session) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = err
	close(s.done)
	s.conn.Close()
}

func (s *session) alive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err == nil
}

func (s *session) close() { s.fail(net.ErrClosed) }

// write sends one frame; a write that cannot finish by dl kills the session.
func (s *session) write(h Header, req *Enc, dl time.Time) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.conn.SetWriteDeadline(dl)
	if err := req.WriteFrame(s.conn, h); err != nil {
		err = fmt.Errorf("wire: send: %w", err)
		s.fail(err)
		return err
	}
	return nil
}

// deadlineGrace is how far past an op's budget a caller keeps waiting:
// long enough for the server's StatusDeadlineExceeded verdict to arrive (it
// says whether the op ran), short enough that a truly stalled mate still
// fails promptly.
const deadlineGrace = 100 * time.Millisecond

// do performs one round trip and decodes the response envelope.
func (s *session) do(ctx context.Context, op Op, req *Enc) (*Dec, error) {
	payload, err := s.roundTrip(ctx, op, req)
	if err != nil {
		return nil, err
	}
	d, err := decodeResp(op, payload)
	var pe *protoError
	if errors.As(err, &pe) {
		s.fail(err) // a peer that answers nonsense cannot be trusted further
	}
	return d, err
}

// roundTrip sends one request and waits for its response. The context's
// deadline travels in the frame header as the remaining budget.
// Cancelling the context withdraws the request in-band with OpCancel and
// returns at once, leaving the session up; only a request that gets no
// answer within the transport timeout (budget plus grace, or OpTimeout)
// breaks the connection, since the mate is then wedged or the answer lost.
func (s *session) roundTrip(ctx context.Context, op Op, req *Enc) ([]byte, error) {
	limit := time.Now().Add(s.timeout)
	var budget uint32
	dl, hasDL := ctx.Deadline()
	if hasDL {
		rem := time.Until(dl)
		if rem <= 0 {
			// Spent before anything was sent: provably never executed,
			// and the session is still healthy.
			return nil, &DeadlineError{Op: op}
		}
		budget = uint32((rem + time.Millisecond - 1) / time.Millisecond)
		if g := dl.Add(deadlineGrace); g.Before(limit) {
			limit = g
		}
	}
	ch := make(chan []byte, 1)
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
	s.nextID++
	id := s.nextID
	s.pending[id] = ch
	s.mu.Unlock()
	if err := s.write(Header{ID: id, Budget: budget}, req, limit); err != nil {
		return nil, err
	}
	timer := time.NewTimer(time.Until(limit))
	defer timer.Stop()
	cancelled := ctx.Done()
	for {
		select {
		case p := <-ch:
			return p, nil
		case <-s.done:
			select {
			case p := <-ch: // answered just before the session died
				return p, nil
			default:
			}
			return nil, s.err
		case <-cancelled:
			if ctx.Err() == context.DeadlineExceeded {
				// The server holds the same deadline: wait out the grace
				// for its verdict.
				cancelled = nil
				continue
			}
			s.mu.Lock()
			delete(s.pending, id)
			s.mu.Unlock()
			cancel := NewEnc(OpCancel)
			s.write(Header{ID: id}, cancel, limit)
			cancel.Release()
			return nil, ctx.Err()
		case <-timer.C:
			err := fmt.Errorf("wire: receive: %w", os.ErrDeadlineExceeded)
			s.fail(err)
			if hasDL && !time.Now().Before(dl) {
				// Our own deadline cut the exchange: the request may have
				// been received and executed, so the outcome is ambiguous.
				return nil, &DeadlineError{Op: op, Ambiguous: true}
			}
			return nil, err
		}
	}
}

// decodeResp checks a response envelope — [op|respBit][status][body] — and
// turns a non-OK status into its typed error. Every exchange uses it: session
// round trips and the one-shot pre-auth probes.
func decodeResp(op Op, payload []byte) (*Dec, error) {
	if len(payload) < 2 {
		return nil, protoErrorf("short response envelope (%d bytes)", len(payload))
	}
	if payload[0] != byte(op)|respBit {
		return nil, protoErrorf("response op %#x does not match request %#x", payload[0], byte(op))
	}
	d := NewDec(payload[2:])
	switch payload[1] {
	case StatusOK:
		return d, nil
	case StatusBusy:
		// Admission shed: the request never executed and the connection
		// is healthy. Carry the server's state and availability index so
		// failover logic can redirect.
		state := d.U8()
		idx := d.U32()
		if d.Err() != nil {
			state, idx = StateOpen, 0
		}
		return nil, &BusyError{Op: op, State: state, Availability: int(idx)}
	case StatusWrongMate:
		// Placement redirect: this mate does not home the database and the
		// request never executed. Only a failover client (which can switch
		// mates) makes progress on this.
		return nil, decWrongMate(op, d)
	case StatusDeadlineExceeded:
		// The server spent our budget. The stage byte says whether the op
		// provably never ran (refused pre-execution, like a shed) or was
		// aborted mid-flight (ambiguous).
		stage := d.U8()
		if d.Err() != nil {
			stage = DeadlineAborted
		}
		return nil, &DeadlineError{Op: op, Remote: true, Ambiguous: stage == DeadlineAborted}
	default:
		msg := d.Str()
		if d.Err() != nil {
			msg = "unknown server error"
		}
		return nil, &ServerError{Op: op, Msg: msg}
	}
}

// probe performs one unauthenticated exchange on a fresh connection — dial
// addr, send req, decode the answer, close — bounded as a whole by timeout
// (<= 0 uses DefaultProbeTimeout). dialer nil dials plain TCP; failover
// clients pass their fault-injection dialer so probes see the same network
// the session does.
func probe(addr string, dialer func(network, addr string) (net.Conn, error), timeout time.Duration, op Op, req *Enc) (*Dec, error) {
	defer req.Release()
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
	}
	if dialer == nil {
		dialer = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, timeout)
		}
	}
	conn, err := dialer("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := req.WriteFrame(conn, Header{ID: 1}); err != nil {
		return nil, err
	}
	_, payload, err := ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	return decodeResp(op, payload)
}
