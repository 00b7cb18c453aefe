package comm

import (
	"fmt"
	"strings"
	"testing"

	"pclouds/internal/costmodel"
)

// TestPerCollectiveCounts drives every collective once on a 4-rank group and
// checks that each rank counted exactly one invocation in the right class
// and that all traffic landed in the invoked classes (nothing under OpP2P,
// nothing misclassified).
func TestPerCollectiveCounts(t *testing.T) {
	const p = 4
	statsCh := make(chan Stats, p)
	err := Run(p, costmodel.Zero(), func(c *ChannelComm) error {
		if err := Barrier(c); err != nil {
			return err
		}
		if _, err := Broadcast(c, 0, []byte("payload")); err != nil {
			return err
		}
		if _, err := Gather(c, 0, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		if _, err := AllGather(c, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		parts := make([][]byte, p)
		for d := range parts {
			parts[d] = []byte{byte(c.Rank()), byte(d)}
		}
		if _, err := AllToAll(c, parts); err != nil {
			return err
		}
		if _, err := AllReduceInt64(c, []int64{1, 2}, func(a, b int64) int64 { return a + b }); err != nil {
			return err
		}
		if _, err := PrefixSumInt64(c, []int64{int64(c.Rank())}); err != nil {
			return err
		}
		if _, _, err := MinLoc(c, float64(c.Rank()), []byte{byte(c.Rank())}); err != nil {
			return err
		}
		statsCh <- c.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(statsCh)

	want := map[OpClass]int64{
		OpBarrier: 1, OpBroadcast: 1, OpGather: 1, OpAllGather: 1,
		OpAllToAll: 1, OpReduce: 1, OpScan: 1, OpMinLoc: 1,
	}
	var group Stats
	ranks := 0
	for st := range statsCh {
		ranks++
		group.Add(st)
		for cl := OpClass(0); cl < NumOpClasses; cl++ {
			if got := st.Ops[cl].Calls; got != want[cl] {
				t.Errorf("class %s: %d calls, want %d", cl, got, want[cl])
			}
		}
		if st.Ops[OpP2P].MsgsSent != 0 || st.Ops[OpP2P].BytesSent != 0 {
			t.Errorf("collective traffic classified as P2P: %+v", st.Ops[OpP2P])
		}
		// Per-class traffic reconciles with the aggregate fields.
		var sent, recvd, bytesSent int64
		for cl := OpClass(0); cl < NumOpClasses; cl++ {
			sent += st.Ops[cl].MsgsSent
			recvd += st.Ops[cl].MsgsRecv
			bytesSent += st.Ops[cl].BytesSent
		}
		if sent != st.MsgsSent || recvd != st.MsgsRecv || bytesSent != st.BytesSent {
			t.Errorf("per-class sums (%d/%d/%d) != aggregates (%d/%d/%d)",
				sent, recvd, bytesSent, st.MsgsSent, st.MsgsRecv, st.BytesSent)
		}
	}
	if ranks != p {
		t.Fatalf("collected %d rank stats, want %d", ranks, p)
	}
	// In the whole group every send has a matching receive per class.
	for cl := OpClass(0); cl < NumOpClasses; cl++ {
		if group.Ops[cl].MsgsSent != group.Ops[cl].MsgsRecv ||
			group.Ops[cl].BytesSent != group.Ops[cl].BytesRecv {
			t.Errorf("class %s group imbalance: %+v", cl, group.Ops[cl])
		}
	}

	table := group.Table()
	for _, name := range []string{"barrier", "bcast", "gather", "allgather", "alltoall", "reduce", "scan", "minloc", "total"} {
		if !strings.Contains(table, name) {
			t.Errorf("Table() missing %q:\n%s", name, table)
		}
	}
}

func TestStatsSub(t *testing.T) {
	var a Stats
	a.RecordSend(tagBroadcast, 100)
	snap := a
	a.RecordSend(tagBroadcast, 50)
	a.RecordRecv(tagGather, 20, 0.25)
	d := a.Sub(snap)
	if d.BytesSent != 50 || d.MsgsSent != 1 {
		t.Errorf("send delta %+v", d)
	}
	if d.Ops[OpBroadcast].BytesSent != 50 {
		t.Errorf("broadcast delta %+v", d.Ops[OpBroadcast])
	}
	if d.Ops[OpGather].BytesRecv != 20 || d.WaitSec != 0.25 {
		t.Errorf("recv delta %+v wait %g", d.Ops[OpGather], d.WaitSec)
	}
	if d.Ops[OpBroadcast].MsgsRecv != 0 || d.BytesRecv != 20 {
		t.Errorf("delta leaked: %+v", d)
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Tag]OpClass{
		TagUser:      OpP2P,
		tagBarrier:   OpBarrier,
		tagBroadcast: OpBroadcast,
		tagGather:    OpGather,
		tagAllGather: OpAllGather,
		tagAllToAll:  OpAllToAll,
		tagReduce:    OpReduce,
		tagScan:      OpScan,
		tagMinLoc:    OpMinLoc,
	}
	for tag, want := range cases {
		if got := ClassOf(tag); got != want {
			t.Errorf("ClassOf(%d) = %s, want %s", tag, got, want)
		}
	}
}

func TestScopeDelta(t *testing.T) {
	err := Run(2, costmodel.Zero(), func(c *ChannelComm) error {
		// Traffic before the scope opens must not appear in its delta.
		if _, err := AllReduceInt64(c, []int64{1}, func(a, b int64) int64 { return a + b }); err != nil {
			return err
		}
		sc := NewScope(c)
		if d := sc.Delta(); d.BytesSent != 0 || d.MsgsRecv != 0 {
			return fmt.Errorf("fresh scope delta not empty: %+v", d)
		}
		if _, err := AllGather(c, []byte{1, 2, 3}); err != nil {
			return err
		}
		d := sc.Delta()
		if d.BytesSent == 0 || d.BytesRecv == 0 {
			return fmt.Errorf("scope missed the all-gather: %+v", d)
		}
		if d.Ops[OpAllGather].BytesSent == 0 || d.Ops[OpReduce].BytesSent != 0 {
			return fmt.Errorf("scope per-class delta wrong: %+v", d.Ops)
		}
		if total := c.Stats(); d.BytesSent >= total.BytesSent {
			return fmt.Errorf("delta %d not smaller than lifetime total %d", d.BytesSent, total.BytesSent)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
