package fault

import (
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
)

// Comm wraps a comm.Communicator, applying the injector's rules to every
// Send and Recv. Collectives built on the wrapped communicator are
// perturbed transparently — a dropped broadcast leg or a corrupted
// all-to-all frame exercises exactly the code paths a flaky network would.
type Comm struct {
	inner comm.Communicator
	inj   *Injector
}

var (
	_ comm.Communicator = (*Comm)(nil)
	_ comm.CallCounter  = (*Comm)(nil)
)

// WrapComm interposes the injector on a communicator.
func WrapComm(c comm.Communicator, inj *Injector) *Comm {
	return &Comm{inner: c, inj: inj}
}

// Rank implements comm.Communicator.
func (c *Comm) Rank() int { return c.inner.Rank() }

// Size implements comm.Communicator.
func (c *Comm) Size() int { return c.inner.Size() }

// Clock implements comm.Communicator.
func (c *Comm) Clock() *costmodel.Clock { return c.inner.Clock() }

// Stats implements comm.Communicator.
func (c *Comm) Stats() comm.Stats { return c.inner.Stats() }

// CountCall forwards collective call attribution to the inner transport
// when it supports it, keeping per-class stats identical under injection.
func (c *Comm) CountCall(cl comm.OpClass) {
	if cc, ok := c.inner.(comm.CallCounter); ok {
		cc.CountCall(cl)
	}
}

// Send implements comm.Communicator with fault injection.
func (c *Comm) Send(to int, tag comm.Tag, data []byte) error {
	r := c.inj.decide(c.inner.Rank(), OpSend, comm.ClassOf(tag))
	if r == nil {
		return c.inner.Send(to, tag, data)
	}
	switch r.Action {
	case Drop:
		// The sender believes the frame left; the receiver never sees it.
		return nil
	case Delay:
		time.Sleep(r.Delay)
		return c.inner.Send(to, tag, data)
	case Corrupt:
		cp := append([]byte(nil), data...)
		if len(cp) > 0 {
			cp[len(cp)/2] ^= 0x01
		}
		return c.inner.Send(to, tag, cp)
	case Error:
		return injectedErr(c.inner.Rank(), OpSend)
	default:
		return c.inner.Send(to, tag, data)
	}
}

// Recv implements comm.Communicator with fault injection.
func (c *Comm) Recv(from int, tag comm.Tag) ([]byte, error) {
	r := c.inj.decide(c.inner.Rank(), OpRecv, comm.ClassOf(tag))
	if r != nil {
		switch r.Action {
		case Delay:
			time.Sleep(r.Delay)
		case Error:
			return nil, injectedErr(c.inner.Rank(), OpRecv)
		}
	}
	return c.inner.Recv(from, tag)
}
