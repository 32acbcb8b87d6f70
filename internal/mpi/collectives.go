package mpi

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Internal tags for collectives; user tags must stay below ReservedTagBase.
const (
	tagBarrierIn  = ReservedTagBase + 0
	tagBarrierOut = ReservedTagBase + 1
)

// Barrier blocks until every rank in the communicator has entered it.
// It is implemented as a gather-to-0 followed by a release broadcast.
func Barrier(c Comm) error {
	if c.Size() == 1 {
		return nil
	}
	if c.Rank() == 0 {
		for i := 1; i < c.Size(); i++ {
			if _, _, err := c.Recv(AnySource, tagBarrierIn); err != nil {
				return err
			}
		}
		for r := 1; r < c.Size(); r++ {
			if err := c.Send(r, tagBarrierOut, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Send(0, tagBarrierIn, nil); err != nil {
		return err
	}
	_, _, err := c.Recv(0, tagBarrierOut)
	return err
}

// SendGob gob-encodes v and sends it.
func SendGob(c Comm, to int, tag Tag, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("mpi: gob encode: %w", err)
	}
	return c.Send(to, tag, buf.Bytes())
}

// RecvGob receives a message and gob-decodes it into v (a pointer).
// It returns the source rank.
func RecvGob(c Comm, from int, tag Tag, v any) (int, error) {
	src, data, err := c.Recv(from, tag)
	if err != nil {
		return src, err
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return src, fmt.Errorf("mpi: gob decode: %w", err)
	}
	return src, nil
}
