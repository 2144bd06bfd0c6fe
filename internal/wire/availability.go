package wire

import (
	"context"
	"net"
	"time"
)

// AvailabilityInfo is a server's self-reported load snapshot, the Domino
// "server availability index" made concrete: 100 means idle, 0 means
// saturated or draining. Clients use it to pick the least-loaded cluster
// mate; the admission layer attaches it to busy responses so even a shed
// request teaches the client where not to go next.
type AvailabilityInfo struct {
	// State is StateOpen or StateRestricted (quiescing/draining).
	State byte
	// Index is the availability index, 0..100.
	Index int
	// InFlight is the number of requests currently executing.
	InFlight int
	// Queued is the number of requests waiting for an admission slot.
	Queued int
	// Latency is the server's recent per-request latency estimate (EWMA).
	Latency time.Duration
}

// Restricted reports whether the server is refusing new work.
func (a AvailabilityInfo) Restricted() bool { return a.State == StateRestricted }

// DefaultProbeTimeout bounds one-shot pre-auth probes (availability,
// resolve) when the caller passes no explicit timeout. It is deliberately
// much smaller than the default OpTimeout: probes exist to notice stalled
// mates, and a probe that waits 30s on a wedged socket defeats itself.
// Configure per client via Options.ProbeTimeout.
const DefaultProbeTimeout = 2 * time.Second

// decAvailability parses the OpAvailability response body.
func decAvailability(d *Dec) (AvailabilityInfo, error) {
	info := AvailabilityInfo{
		State:    d.U8(),
		Index:    int(d.U32()),
		InFlight: int(d.U32()),
		Queued:   int(d.U32()),
	}
	info.Latency = time.Duration(d.U64()) * time.Microsecond
	return info, d.Err()
}

// Availability asks the server for its current availability index over the
// established session. Reading load is idempotent and retries safely.
func (c *Client) Availability() (AvailabilityInfo, error) {
	return c.availability(context.Background())
}

func (c *Client) availability(ctx context.Context) (AvailabilityInfo, error) {
	d, err := c.call(ctx, OpAvailability, true, func() (*Enc, error) { return NewEnc(OpAvailability), nil })
	if err != nil {
		return AvailabilityInfo{}, err
	}
	return decAvailability(d)
}

// ProbeAvailability performs a one-shot, unauthenticated health probe: it
// dials addr, issues OpAvailability, and closes. The whole probe is bounded
// by timeout (<= 0 uses DefaultProbeTimeout). dialer nil dials plain TCP —
// failover clients pass their fault-injection dialer so probes see the same
// network the session does.
func ProbeAvailability(addr string, dialer func(network, addr string) (net.Conn, error), timeout time.Duration) (AvailabilityInfo, error) {
	d, err := probe(addr, dialer, timeout, OpAvailability, NewEnc(OpAvailability))
	if err != nil {
		return AvailabilityInfo{}, err
	}
	return decAvailability(d)
}
