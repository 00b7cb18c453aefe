package tcpcomm

import (
	"fmt"
	"testing"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
)

// collectiveWorkout runs a fixed collective sequence on one rank of any
// transport, so the channel mesh and the TCP mesh can be compared.
func collectiveWorkout(c comm.Communicator) error {
	if err := comm.Barrier(c); err != nil {
		return err
	}
	if _, err := comm.Broadcast(c, 0, []byte("payload")); err != nil {
		return err
	}
	if _, err := comm.Gather(c, 0, []byte{byte(c.Rank())}); err != nil {
		return err
	}
	if _, err := comm.AllGather(c, []byte{byte(c.Rank()), 0xfe}); err != nil {
		return err
	}
	parts := make([][]byte, c.Size())
	for d := range parts {
		parts[d] = []byte{byte(c.Rank()), byte(d)}
	}
	if _, err := comm.AllToAll(c, parts); err != nil {
		return err
	}
	if _, err := comm.AllReduceInt64(c, []int64{int64(c.Rank()), 7}, func(a, b int64) int64 { return a + b }); err != nil {
		return err
	}
	_, _, err := comm.MinLoc(c, float64(c.Rank()), []byte{byte(c.Rank())})
	return err
}

// TestPerCollectiveParityWithChannelMesh runs the same collective sequence
// over the in-process channel mesh and the real TCP mesh and checks that
// every rank observes identical per-collective invocation counts and
// message/byte totals — the TCP transport must attribute traffic exactly
// like the reference transport.
func TestPerCollectiveParityWithChannelMesh(t *testing.T) {
	const p = 4

	chanStats := make([]comm.Stats, p)
	if err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
		if err := collectiveWorkout(c); err != nil {
			return err
		}
		chanStats[c.Rank()] = c.Stats()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	comms := dialGroup(t, p)
	tcpStats := make([]comm.Stats, p)
	parallel(t, comms, func(c *Comm) error {
		if err := collectiveWorkout(c); err != nil {
			return err
		}
		tcpStats[c.Rank()] = c.Stats()
		return nil
	})

	for r := 0; r < p; r++ {
		for cl := comm.OpClass(0); cl < comm.NumOpClasses; cl++ {
			ch, tc := chanStats[r].Ops[cl], tcpStats[r].Ops[cl]
			if ch.Calls != tc.Calls {
				t.Errorf("rank %d class %s: tcp %d calls, channel %d", r, cl, tc.Calls, ch.Calls)
			}
			if ch.MsgsSent != tc.MsgsSent || ch.BytesSent != tc.BytesSent ||
				ch.MsgsRecv != tc.MsgsRecv || ch.BytesRecv != tc.BytesRecv {
				t.Errorf("rank %d class %s traffic: tcp %+v, channel %+v", r, cl, tc, ch)
			}
		}
		if chanStats[r].BytesSent != tcpStats[r].BytesSent {
			t.Errorf("rank %d aggregate bytes: tcp %d, channel %d",
				r, tcpStats[r].BytesSent, chanStats[r].BytesSent)
		}
	}
}

// allReduceInPlace checks one rank's side of the ownership rule for
// AllReduceInt64 on a short vector (the tree path) and one of 16 elements
// (reduce-scatter at power-of-two p): the sum lands in the caller's v, and
// rank 0 writing its result afterwards changes no other rank's.
func allReduceInPlace(c comm.Communicator) error {
	p := c.Size()
	for _, m := range []int{1, 16} {
		v := make([]int64, m)
		for i := range v {
			v[i] = int64(100*c.Rank() + i)
		}
		got, err := comm.AllReduceInt64(c, v, func(a, b int64) int64 { return a + b })
		if err != nil {
			return err
		}
		if &got[0] != &v[0] {
			return fmt.Errorf("p=%d m=%d rank %d: the result is not the caller's v", p, m, c.Rank())
		}
		check := func() error {
			for i, x := range v {
				if want := int64(100*p*(p-1)/2 + p*i); x != want {
					return fmt.Errorf("p=%d m=%d rank %d: element %d is %d, want %d", p, m, c.Rank(), i, x, want)
				}
			}
			return nil
		}
		if err := check(); err != nil {
			return err
		}
		if err := comm.Barrier(c); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := range v {
				v[i] = -1
			}
		}
		if err := comm.Barrier(c); err != nil {
			return err
		}
		if c.Rank() != 0 {
			if err := check(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestAllReduceInt64InPlace holds both transports to the ownership rule on
// comm.Communicator: AllReduceInt64 overwrites v with the result and
// returns v, and no rank's result shares memory with another's.
func TestAllReduceInt64InPlace(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		if err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error { return allReduceInPlace(c) }); err != nil {
			t.Fatalf("channel p=%d: %v", p, err)
		}
		parallel(t, dialGroup(t, p), func(c *Comm) error { return allReduceInPlace(c) })
	}
}
