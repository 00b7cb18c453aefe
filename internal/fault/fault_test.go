package fault

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
)

// TestDeterministicDecisions: two injectors with the same seed and rules
// make identical decisions for the same operation stream; a different seed
// diverges.
func TestDeterministicDecisions(t *testing.T) {
	rules := []Rule{{Rank: AnyRank, Op: OpSend, Class: AnyClass, Action: Drop, Prob: 0.3}}
	run := func(seed uint64) []bool {
		in := NewInjector(seed, rules...)
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.decide(1, OpSend, comm.OpP2P) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams")
	}
	if s := NewInjector(42, rules...); func() bool {
		for i := 0; i < 200; i++ {
			s.decide(1, OpSend, comm.OpP2P)
		}
		return s.Stats().Drops == 0 || s.Stats().Drops == 200
	}() {
		t.Fatal("Prob 0.3 should fire sometimes but not always over 200 ops")
	}
}

// TestPerRankIndependence: decisions for one rank do not shift when another
// rank interleaves operations through the same shared injector.
func TestPerRankIndependence(t *testing.T) {
	rules := []Rule{{Rank: AnyRank, Op: OpSend, Class: AnyClass, Action: Drop, Prob: 0.5}}
	solo := NewInjector(7, rules...)
	var soloSeq []bool
	for i := 0; i < 100; i++ {
		soloSeq = append(soloSeq, solo.decide(2, OpSend, comm.OpP2P) != nil)
	}
	shared := NewInjector(7, rules...)
	var sharedSeq []bool
	for i := 0; i < 100; i++ {
		shared.decide(0, OpSend, comm.OpP2P) // interloper
		sharedSeq = append(sharedSeq, shared.decide(2, OpSend, comm.OpP2P) != nil)
		shared.decide(1, OpSend, comm.OpP2P)
	}
	for i := range soloSeq {
		if soloSeq[i] != sharedSeq[i] {
			t.Fatalf("rank 2's decision %d changed under interleaving", i)
		}
	}
}

// TestWindowing: After skips, Every strides, Count caps.
func TestWindowing(t *testing.T) {
	in := NewInjector(1, Rule{Rank: AnyRank, Op: OpWrite, Class: AnyClass, Action: Error, After: 3, Every: 2, Count: 2})
	var fired []int
	for i := 1; i <= 12; i++ {
		if in.decide(0, OpWrite, AnyClass) != nil {
			fired = append(fired, i)
		}
	}
	want := []int{4, 6} // first after 3, stride 2, capped at 2 firings
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if s := in.Stats(); s.Errors != 2 {
		t.Fatalf("Errors = %d, want 2", s.Errors)
	}
}

// TestRuleSelectivity: rank and class filters hold.
func TestRuleSelectivity(t *testing.T) {
	in := NewInjector(1,
		Rule{Rank: 2, Op: OpSend, Class: comm.OpAllToAll, Action: Drop})
	if in.decide(1, OpSend, comm.OpAllToAll) != nil {
		t.Fatal("wrong rank matched")
	}
	if in.decide(2, OpSend, comm.OpBroadcast) != nil {
		t.Fatal("wrong class matched")
	}
	if in.decide(2, OpRecv, comm.OpAllToAll) != nil {
		t.Fatal("wrong op matched")
	}
	if in.decide(2, OpSend, comm.OpAllToAll) == nil {
		t.Fatal("exact match did not fire")
	}
}

// TestCommDropLosesMessage: a dropped frame never reaches the peer; the
// sender sees success.
func TestCommDropLosesMessage(t *testing.T) {
	comms := comm.NewGroup(2, costmodel.Zero())
	in := NewInjector(1, Rule{Rank: 0, Op: OpSend, Class: AnyClass, Action: Drop, Count: 1})
	c0 := WrapComm(comms[0], in)
	if err := c0.Send(1, comm.TagUser, []byte("lost")); err != nil {
		t.Fatalf("drop must look like success to the sender: %v", err)
	}
	if err := c0.Send(1, comm.TagUser, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	b, err := comms[1].Recv(0, comm.TagUser)
	if err != nil || string(b) != "kept" {
		t.Fatalf("got %q, %v; want the post-drop message", b, err)
	}
	if s := in.Stats(); s.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", s.Drops)
	}
}

// TestCommCorruptAltersPayload: corruption flips a bit; over the channel
// transport it arrives altered (TCP would reject it at the checksum).
func TestCommCorruptAltersPayload(t *testing.T) {
	comms := comm.NewGroup(2, costmodel.Zero())
	in := NewInjector(1, Rule{Rank: 0, Op: OpSend, Class: AnyClass, Action: Corrupt, Count: 1})
	orig := []byte("pristine")
	if err := WrapComm(comms[0], in).Send(1, comm.TagUser, orig); err != nil {
		t.Fatal(err)
	}
	if string(orig) != "pristine" {
		t.Fatal("corruption must not mutate the caller's slice")
	}
	b, err := comms[1].Recv(0, comm.TagUser)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) == "pristine" {
		t.Fatal("payload arrived unaltered")
	}
}

// TestCommErrorInjected: an injected send error surfaces to the caller as
// ErrInjected.
func TestCommErrorInjected(t *testing.T) {
	comms := comm.NewGroup(2, costmodel.Zero())
	in := NewInjector(1, Rule{Rank: 0, Op: OpSend, Class: AnyClass, Action: Error, Count: 1})
	c0 := WrapComm(comms[0], in)
	if err := c0.Send(1, comm.TagUser, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("send should fail with the injected error: %v", err)
	}
}

// TestCollectivesUnderDelay: a whole collective workout over wrapped
// communicators with sprinkled delays still completes correctly — delay
// faults perturb timing, never results.
func TestCollectivesUnderDelay(t *testing.T) {
	in := NewInjector(99, Rule{Rank: AnyRank, Op: OpSend, Class: AnyClass, Action: Delay, Prob: 0.2, Delay: time.Millisecond})
	err := comm.Run(4, costmodel.Zero(), func(cc *comm.ChannelComm) error {
		c := WrapComm(cc, in)
		sum, err := comm.AllReduceInt64(c, []int64{int64(c.Rank())}, func(a, b int64) int64 { return a + b })
		if err != nil {
			return err
		}
		if sum[0] != 6 {
			return fmt.Errorf("allreduce under delay: got %d, want 6", sum[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Stats().Delays == 0 {
		t.Fatal("no delays injected at Prob 0.2 over a 4-rank collective workout")
	}
}
