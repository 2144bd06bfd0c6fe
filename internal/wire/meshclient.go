package wire

import (
	"context"

	"repro/internal/mesh"
)

// MeshStatus lists the server's replication-mesh links with their live
// scheduling and transfer counters.
func (c *Client) MeshStatus() ([]mesh.LinkStatus, error) {
	d, err := c.call(context.Background(), OpMeshStatus, true, func() (*Enc, error) {
		return NewEnc(OpMeshStatus), nil
	})
	if err != nil {
		return nil, err
	}
	count := int(d.U32())
	out := make([]mesh.LinkStatus, 0, count)
	for i := 0; i < count && d.Err() == nil; i++ {
		out = append(out, d.MeshLinkStatus())
	}
	return out, d.Err()
}

// MeshAdd adds a replication-mesh link on the server. The server validates
// the link (including compiling its selection formula) before starting it.
// Adding is idempotent-safe to retry: a duplicate name fails cleanly.
func (c *Client) MeshAdd(l mesh.Link) error {
	_, err := c.call(context.Background(), OpMeshAdd, false, func() (*Enc, error) {
		return NewEnc(OpMeshAdd).MeshLink(l), nil
	})
	return err
}

// MeshRemove removes a replication-mesh link by name.
func (c *Client) MeshRemove(name string) error {
	_, err := c.call(context.Background(), OpMeshRemove, false, func() (*Enc, error) {
		return NewEnc(OpMeshRemove).Str(name), nil
	})
	return err
}
