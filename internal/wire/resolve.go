package wire

import (
	"context"
	"net"
	"time"
)

// ResolveInfo is a resolved placement record: where a database lives, stamped
// with the directory generation that produced it. A client caches these and
// treats any record with a higher generation (from a later resolve or a
// StatusWrongMate redirect) as strictly fresher.
type ResolveInfo struct {
	// Path is the database path the record describes.
	Path string
	// Generation is the placement generation; 0 with empty Homes means the
	// database is unplaced and any mate may serve it.
	Generation uint64
	// Replicas is the target replica factor.
	Replicas int
	// Homes lists the mates that home the database, with wire addresses
	// where the resolving server knows them.
	Homes []HomeAddr
}

// Unplaced reports whether the record says "no placement: served anywhere".
func (r ResolveInfo) Unplaced() bool { return r.Generation == 0 && len(r.Homes) == 0 }

// encoding of one resolve record (shared by OpResolve responses and
// StatusWrongMate redirect bodies):
//
//	Str(path) U64(generation) U32(replicas) U32(count) { Str(name) Str(addr) }*

// decResolveRecord parses one placement record.
func decResolveRecord(d *Dec) (ResolveInfo, error) {
	info := ResolveInfo{
		Path:       d.Str(),
		Generation: d.U64(),
		Replicas:   int(d.U32()),
	}
	count := int(d.U32())
	for i := 0; i < count && d.Err() == nil; i++ {
		info.Homes = append(info.Homes, HomeAddr{Name: d.Str(), Addr: d.Str()})
	}
	return info, d.Err()
}

// decWrongMate parses a StatusWrongMate response body into the redirect
// error. A malformed body still yields a usable (if empty) redirect: the
// client falls back to a full re-resolve.
func decWrongMate(op Op, d *Dec) *WrongMateError {
	info, err := decResolveRecord(d)
	if err != nil {
		return &WrongMateError{Op: op}
	}
	return &WrongMateError{Op: op, Path: info.Path, Generation: info.Generation, Homes: info.Homes}
}

// Resolve asks the server where path lives. Resolution reads directory
// metadata only, so it retries safely.
func (c *Client) Resolve(path string) (ResolveInfo, error) {
	return c.resolve(context.Background(), path)
}

func (c *Client) resolve(ctx context.Context, path string) (ResolveInfo, error) {
	d, err := c.call(ctx, OpResolve, true, func() (*Enc, error) { return NewEnc(OpResolve).Str(path), nil })
	if err != nil {
		return ResolveInfo{}, err
	}
	return decOneRecord(d)
}

// Placements lists every placement record the server knows.
func (c *Client) Placements() ([]ResolveInfo, error) {
	d, err := c.call(context.Background(), OpResolve, true, func() (*Enc, error) { return NewEnc(OpResolve).Str(""), nil })
	if err != nil {
		return nil, err
	}
	return decRecords(d)
}

// decOneRecord parses an OpResolve response that must hold exactly one
// record.
func decOneRecord(d *Dec) (ResolveInfo, error) {
	if n := int(d.U32()); n != 1 {
		if err := d.Err(); err != nil {
			return ResolveInfo{}, err
		}
		return ResolveInfo{}, protoErrorf("resolve returned %d records for one path", n)
	}
	return decResolveRecord(d)
}

// decRecords parses an OpResolve listing.
func decRecords(d *Dec) ([]ResolveInfo, error) {
	count := d.U32()
	// A record encodes to at least 17 bytes; clamp the preallocation so a
	// corrupt count cannot demand gigabytes up front.
	out := make([]ResolveInfo, 0, d.Cap(count, 17))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		info, err := decResolveRecord(d)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, d.Err()
}

// ResolvePlacement performs a one-shot, unauthenticated placement resolve
// against addr, like ProbeAvailability: dial, ask, close. Failover clients
// use it to locate a database before (or instead of) opening a session, and
// operator tooling uses it to inspect routing without credentials.
func ResolvePlacement(addr, path string, dialer func(network, addr string) (net.Conn, error), timeout time.Duration) (ResolveInfo, error) {
	d, err := probe(addr, dialer, timeout, OpResolve, NewEnc(OpResolve).Str(path))
	if err != nil {
		return ResolveInfo{}, err
	}
	return decOneRecord(d)
}

// ListPlacements performs a one-shot, unauthenticated listing of every
// placement record addr knows.
func ListPlacements(addr string, dialer func(network, addr string) (net.Conn, error), timeout time.Duration) ([]ResolveInfo, error) {
	d, err := probe(addr, dialer, timeout, OpResolve, NewEnc(OpResolve).Str(""))
	if err != nil {
		return nil, err
	}
	return decRecords(d)
}
