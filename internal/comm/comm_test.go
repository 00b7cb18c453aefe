package comm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pclouds/internal/costmodel"
)

// groupSizes covers powers of two (the recursive algorithms) and odd sizes
// (the fallbacks).
var groupSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

// runGroup runs fn on every rank of a fresh group and fails the test on any
// rank error.
func runGroup(t *testing.T, p int, fn func(c *ChannelComm) error) {
	t.Helper()
	if err := Run(p, costmodel.Zero(), fn); err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	runGroup(t, 2, func(c *ChannelComm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, TagUser, []byte("hello")); err != nil {
				return err
			}
			got, err := c.Recv(1, TagUser)
			if err != nil {
				return err
			}
			if string(got) != "world" {
				return fmt.Errorf("got %q", got)
			}
			return nil
		}
		got, err := c.Recv(0, TagUser)
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("got %q", got)
		}
		return c.Send(0, TagUser, []byte("world"))
	})
}

func TestSendRecvFIFO(t *testing.T) {
	const n = 100
	runGroup(t, 2, func(c *ChannelComm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, TagUser, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := c.Recv(0, TagUser)
			if err != nil {
				return err
			}
			if got[0] != byte(i) {
				return fmt.Errorf("out of order: got %d want %d", got[0], i)
			}
		}
		return nil
	})
}

func TestSendSelfRejected(t *testing.T) {
	comms := NewGroup(2, costmodel.Zero())
	if err := comms[0].Send(0, TagUser, nil); err == nil {
		t.Fatal("self-send should fail")
	}
	if err := comms[0].Send(5, TagUser, nil); err == nil {
		t.Fatal("out-of-range send should fail")
	}
	if _, err := comms[0].Recv(0, TagUser); err == nil {
		t.Fatal("self-recv should fail")
	}
}

func TestTagMismatchDetected(t *testing.T) {
	runGroup(t, 2, func(c *ChannelComm) error {
		if c.Rank() == 0 {
			return c.Send(1, TagUser, []byte("x"))
		}
		if _, err := c.Recv(0, TagUser+1); err == nil {
			return fmt.Errorf("tag mismatch should fail")
		}
		return nil
	})
}

func TestBroadcast(t *testing.T) {
	for _, p := range groupSizes {
		for root := 0; root < p; root += max(1, p/3) {
			payload := []byte(fmt.Sprintf("payload-from-%d", root))
			runGroup(t, p, func(c *ChannelComm) error {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				got, err := Broadcast(c, root, in)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("rank %d: got %q want %q", c.Rank(), got, payload)
				}
				return nil
			})
		}
	}
}

func TestBroadcastBadRoot(t *testing.T) {
	runGroup(t, 2, func(c *ChannelComm) error {
		if _, err := Broadcast(c, 7, nil); err == nil {
			return fmt.Errorf("bad root should fail")
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	for _, p := range groupSizes {
		for root := 0; root < p; root += max(1, p/2) {
			runGroup(t, p, func(c *ChannelComm) error {
				mine := []byte(fmt.Sprintf("rank-%d", c.Rank()))
				got, err := Gather(c, root, mine)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if got != nil {
						return fmt.Errorf("non-root got non-nil result")
					}
					return nil
				}
				if len(got) != p {
					return fmt.Errorf("root got %d parts, want %d", len(got), p)
				}
				for r, blk := range got {
					want := fmt.Sprintf("rank-%d", r)
					if string(blk) != want {
						return fmt.Errorf("part %d: got %q want %q", r, blk, want)
					}
				}
				return nil
			})
		}
	}
}

func TestAllGather(t *testing.T) {
	for _, p := range groupSizes {
		runGroup(t, p, func(c *ChannelComm) error {
			mine := []byte(fmt.Sprintf("rank-%d-data", c.Rank()))
			got, err := AllGather(c, mine)
			if err != nil {
				return err
			}
			if len(got) != p {
				return fmt.Errorf("got %d parts, want %d", len(got), p)
			}
			for r, blk := range got {
				want := fmt.Sprintf("rank-%d-data", r)
				if string(blk) != want {
					return fmt.Errorf("rank %d part %d: got %q want %q", c.Rank(), r, blk, want)
				}
			}
			return nil
		})
	}
}

func TestAllToAll(t *testing.T) {
	for _, p := range groupSizes {
		runGroup(t, p, func(c *ChannelComm) error {
			parts := make([][]byte, p)
			for d := 0; d < p; d++ {
				parts[d] = []byte(fmt.Sprintf("%d->%d", c.Rank(), d))
			}
			got, err := AllToAll(c, parts)
			if err != nil {
				return err
			}
			for s := 0; s < p; s++ {
				want := fmt.Sprintf("%d->%d", s, c.Rank())
				if string(got[s]) != want {
					return fmt.Errorf("from %d: got %q want %q", s, got[s], want)
				}
			}
			return nil
		})
	}
}

func TestAllToAllWrongParts(t *testing.T) {
	runGroup(t, 2, func(c *ChannelComm) error {
		if c.Rank() == 1 {
			// Keep rank 1 from deadlocking rank 0: its call has correct
			// parts but rank 0 errors before communicating.
			return nil
		}
		if _, err := AllToAll(c, make([][]byte, 5)); err == nil {
			return fmt.Errorf("wrong part count should fail")
		}
		return nil
	})
}

func TestAllReduceInt64Sum(t *testing.T) {
	for _, p := range groupSizes {
		for _, m := range []int{0, 1, 3, 16, 100} {
			runGroup(t, p, func(c *ChannelComm) error {
				v := make([]int64, m)
				for i := range v {
					v[i] = int64(c.Rank()*1000 + i)
				}
				got, err := AllReduceInt64(c, v, func(a, b int64) int64 { return a + b })
				if err != nil {
					return err
				}
				for i := range got {
					var want int64
					for r := 0; r < p; r++ {
						want += int64(r*1000 + i)
					}
					if got[i] != want {
						return fmt.Errorf("p=%d m=%d elem %d: got %d want %d", p, m, i, got[i], want)
					}
				}
				return nil
			})
		}
	}
}

func TestAllReduceInt64Max(t *testing.T) {
	for _, p := range groupSizes {
		runGroup(t, p, func(c *ChannelComm) error {
			v := []int64{int64(c.Rank()), int64(-c.Rank())}
			got, err := AllReduceInt64(c, v, func(a, b int64) int64 {
				if a > b {
					return a
				}
				return b
			})
			if err != nil {
				return err
			}
			if got[0] != int64(p-1) || got[1] != 0 {
				return fmt.Errorf("got %v", got)
			}
			return nil
		})
	}
}

func TestPrefixSumInt64(t *testing.T) {
	for _, p := range groupSizes {
		runGroup(t, p, func(c *ChannelComm) error {
			v := []int64{int64(c.Rank() + 1), 10 * int64(c.Rank()+1)}
			got, err := PrefixSumInt64(c, v)
			if err != nil {
				return err
			}
			r := int64(c.Rank() + 1)
			want0 := r * (r + 1) / 2
			if got[0] != want0 || got[1] != 10*want0 {
				return fmt.Errorf("rank %d: got %v want [%d %d]", c.Rank(), got, want0, 10*want0)
			}
			return nil
		})
	}
}

func TestMinLoc(t *testing.T) {
	for _, p := range groupSizes {
		runGroup(t, p, func(c *ChannelComm) error {
			// Rank p-1 holds the minimum.
			val := float64(p - 1 - c.Rank())
			payload := []byte(fmt.Sprintf("argmin-%d", c.Rank()))
			v, pl, err := MinLoc(c, val, payload)
			if err != nil {
				return err
			}
			if v != 0 {
				return fmt.Errorf("min %v want 0", v)
			}
			want := fmt.Sprintf("argmin-%d", p-1)
			if string(pl) != want {
				return fmt.Errorf("payload %q want %q", pl, want)
			}
			return nil
		})
	}
}

func TestMinLocTieBreaksLowRank(t *testing.T) {
	runGroup(t, 4, func(c *ChannelComm) error {
		_, pl, err := MinLoc(c, 1.0, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if pl[0] != 0 {
			return fmt.Errorf("tie should pick rank 0, got %d", pl[0])
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	for _, p := range groupSizes {
		runGroup(t, p, func(c *ChannelComm) error {
			for i := 0; i < 3; i++ {
				if err := Barrier(c); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func TestAllReduceBytesCustomCombine(t *testing.T) {
	runGroup(t, 8, func(c *ChannelComm) error {
		// Combine keeps the lexicographically largest payload.
		mine := []byte(fmt.Sprintf("%02d", c.Rank()))
		got, err := AllReduceBytes(c, mine, func(a, b []byte) ([]byte, error) {
			if bytes.Compare(a, b) >= 0 {
				return a, nil
			}
			return b, nil
		})
		if err != nil {
			return err
		}
		if string(got) != "07" {
			return fmt.Errorf("got %q want %q", got, "07")
		}
		return nil
	})
}

func TestSubComm(t *testing.T) {
	runGroup(t, 6, func(c *ChannelComm) error {
		// Two disjoint subgroups running concurrent collectives.
		var ranks []int
		if c.Rank() < 3 {
			ranks = []int{0, 1, 2}
		} else {
			ranks = []int{3, 4, 5}
		}
		sub, err := NewSub(c, ranks)
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		got, err := AllReduceInt64(sub, []int64{int64(c.Rank())}, func(a, b int64) int64 { return a + b })
		if err != nil {
			return err
		}
		var want int64
		for _, r := range ranks {
			want += int64(r)
		}
		if got[0] != want {
			return fmt.Errorf("subgroup sum %d want %d", got[0], want)
		}
		return nil
	})
}

func TestSubCommValidation(t *testing.T) {
	comms := NewGroup(4, costmodel.Zero())
	if _, err := NewSub(comms[0], []int{1, 2}); err == nil {
		t.Fatal("subgroup without own rank should fail")
	}
	if _, err := NewSub(comms[0], []int{0, 0, 1}); err == nil {
		t.Fatal("duplicate ranks should fail")
	}
	if _, err := NewSub(comms[0], []int{0, 9}); err == nil {
		t.Fatal("out-of-range rank should fail")
	}
}

func TestStatsCounted(t *testing.T) {
	comms := NewGroup(2, costmodel.Zero())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		comms[0].Send(1, TagUser, make([]byte, 100))
	}()
	go func() {
		defer wg.Done()
		comms[1].Recv(0, TagUser)
	}()
	wg.Wait()
	if s := comms[0].Stats(); s.MsgsSent != 1 || s.BytesSent != 100 {
		t.Fatalf("sender stats %+v", s)
	}
	if s := comms[1].Stats(); s.MsgsRecv != 1 || s.BytesRecv != 100 {
		t.Fatalf("receiver stats %+v", s)
	}
}

func TestSimulatedClockAdvances(t *testing.T) {
	params := costmodel.Params{Ts: 1, Tw: 0.001}
	comms := NewGroup(2, params)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		comms[0].Send(1, TagUser, make([]byte, 1000))
	}()
	go func() {
		defer wg.Done()
		comms[1].Recv(0, TagUser)
	}()
	wg.Wait()
	// Sender: ts + 1000*tw = 2.0; receiver aligns to sender completion.
	if got := comms[0].Clock().Time(); got != 2.0 {
		t.Fatalf("sender clock %v want 2.0", got)
	}
	if got := comms[1].Clock().Time(); got != 2.0 {
		t.Fatalf("receiver clock %v want 2.0", got)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
