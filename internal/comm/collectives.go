package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file implements the collective communication primitives of the
// paper's Table 1 on top of point-to-point Send/Recv. All ranks of a group
// must call the same collectives in the same order.
//
// Algorithms (p ranks, m bytes per rank, lg = ceil(log2 p)):
//
//	Broadcast       binomial tree                     O((ts+tw·m)·lg)
//	Gather          binomial tree, growing payloads   O(ts·lg + tw·m·p)
//	AllGather       recursive doubling (power of 2)   O(ts·lg + tw·m·(p-1))
//	AllToAll        p-1 round pairwise exchange       O((ts+tw·m)·(p-1))
//	AllReduce       reduce-scatter + all-gather       O(ts·lg + tw·m)
//	PrefixSum       Hillis–Steele rank scan           O((ts+tw·m)·lg)
//	MinLoc          binomial reduce + broadcast       O((ts+tw·m)·lg)
//	Barrier         zero-byte AllReduce               O(ts·lg)
//
// AllGather and AllReduce use their power-of-two algorithms when p is a
// power of two (every experiment in the paper: 1,2,4,8,16) and fall back to
// gather+broadcast / reduce+broadcast otherwise.

func isPow2(p int) bool { return p&(p-1) == 0 }

// Barrier blocks until every rank of c's group has entered it: a zero-byte
// binomial reduce to rank 0 followed by a tree broadcast, all on the
// barrier's own tag so its cost is attributed separately.
func Barrier(c Communicator) error {
	countCall(c, OpBarrier)
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	for mask := 1; mask < p; mask <<= 1 {
		if r&mask != 0 {
			if err := c.Send(r-mask, tagBarrier, nil); err != nil {
				return fmt.Errorf("comm: barrier: %w", err)
			}
			break
		}
		if r+mask < p {
			if _, err := c.Recv(r+mask, tagBarrier); err != nil {
				return fmt.Errorf("comm: barrier: %w", err)
			}
		}
	}
	if _, err := broadcastTag(c, 0, nil, tagBarrier); err != nil {
		return fmt.Errorf("comm: barrier: %w", err)
	}
	return nil
}

// Broadcast sends root's data to every rank using a binomial tree. Every
// rank returns the broadcast payload (the root returns its own input).
func Broadcast(c Communicator, root int, data []byte) ([]byte, error) {
	countCall(c, OpBroadcast)
	return broadcastTag(c, root, data, tagBroadcast)
}

// broadcastTag is the binomial-tree broadcast on an explicit tag, shared by
// Broadcast, Barrier and the tree all-reduces so each primitive's messages
// stay attributed to its own traffic class.
func broadcastTag(c Communicator, root int, data []byte, tag Tag) ([]byte, error) {
	p, r := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return nil, fmt.Errorf("comm: broadcast: bad root %d", root)
	}
	if p == 1 {
		return data, nil
	}
	vr := (r - root + p) % p // virtual rank: root becomes 0
	// Find the highest power of two <= number of ranks.
	top := 1
	for top < p {
		top <<= 1
	}
	if vr != 0 {
		// Receive from the parent: clear the lowest set bit of vr.
		parent := (vr&(vr-1) + root) % p
		var err error
		data, err = c.Recv(parent, tag)
		if err != nil {
			return nil, fmt.Errorf("comm: broadcast recv: %w", err)
		}
	}
	// Forward to children: vr + mask for masks above vr's lowest set bit.
	low := vr & (-vr)
	if vr == 0 {
		low = top
	}
	for mask := low >> 1; mask >= 1; mask >>= 1 {
		child := vr + mask
		if child < p {
			if err := c.Send((child+root)%p, tag, data); err != nil {
				return nil, fmt.Errorf("comm: broadcast send: %w", err)
			}
		}
	}
	return data, nil
}

// packBlocks frames a set of (rank, payload) pairs into one message.
func packBlocks(ranks []int, blocks [][]byte) []byte {
	var out []byte
	var hdr [12]byte
	for i, rk := range ranks {
		binary.LittleEndian.PutUint32(hdr[0:], uint32(rk))
		binary.LittleEndian.PutUint64(hdr[4:], uint64(len(blocks[i])))
		out = append(out, hdr[:]...)
		out = append(out, blocks[i]...)
	}
	return out
}

func unpackBlocks(src []byte) ([]int, [][]byte, error) {
	var ranks []int
	var blocks [][]byte
	for len(src) > 0 {
		if len(src) < 12 {
			return nil, nil, fmt.Errorf("comm: corrupt block frame (%d trailing bytes)", len(src))
		}
		rk := int(binary.LittleEndian.Uint32(src[0:]))
		n := int(binary.LittleEndian.Uint64(src[4:]))
		src = src[12:]
		if n < 0 || n > len(src) {
			return nil, nil, fmt.Errorf("comm: corrupt block length %d", n)
		}
		ranks = append(ranks, rk)
		blocks = append(blocks, src[:n])
		src = src[n:]
	}
	return ranks, blocks, nil
}

// Gather collects each rank's data at root. At the root the result has one
// entry per rank (result[i] is rank i's payload); other ranks get nil.
func Gather(c Communicator, root int, data []byte) ([][]byte, error) {
	countCall(c, OpGather)
	p, r := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return nil, fmt.Errorf("comm: gather: bad root %d", root)
	}
	if p == 1 {
		return [][]byte{data}, nil
	}
	vr := (r - root + p) % p
	ranks := []int{r}
	blocks := [][]byte{data}
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			// Send everything accumulated to the parent and stop.
			parent := (vr - mask + root) % p
			if err := c.Send(parent, tagGather, packBlocks(ranks, blocks)); err != nil {
				return nil, fmt.Errorf("comm: gather send: %w", err)
			}
			return nil, nil
		}
		if vr+mask < p {
			raw, err := c.Recv((vr+mask+root)%p, tagGather)
			if err != nil {
				return nil, fmt.Errorf("comm: gather recv: %w", err)
			}
			rs, bs, err := unpackBlocks(raw)
			if err != nil {
				return nil, err
			}
			ranks = append(ranks, rs...)
			blocks = append(blocks, bs...)
		}
	}
	// Only the root reaches here.
	out := make([][]byte, p)
	for i, rk := range ranks {
		if rk < 0 || rk >= p || out[rk] != nil {
			return nil, fmt.Errorf("comm: gather: duplicate or invalid rank %d", rk)
		}
		out[rk] = blocks[i]
	}
	return out, nil
}

// AllGather is the paper's all-to-all broadcast: every rank contributes data
// and every rank receives all p payloads, indexed by rank. Recursive
// doubling for power-of-two p; gather+broadcast otherwise.
func AllGather(c Communicator, data []byte) ([][]byte, error) {
	countCall(c, OpAllGather)
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return [][]byte{data}, nil
	}
	if !isPow2(p) {
		return allGatherViaRoot(c, data)
	}
	ranks := []int{r}
	blocks := [][]byte{append([]byte(nil), data...)}
	for mask := 1; mask < p; mask <<= 1 {
		partner := r ^ mask
		payload := packBlocks(ranks, blocks)
		// Lower rank sends first; buffered channels make the order safe,
		// and deterministic ordering keeps transcripts reproducible.
		if r < partner {
			if err := c.Send(partner, tagAllGather, payload); err != nil {
				return nil, err
			}
			raw, err := c.Recv(partner, tagAllGather)
			if err != nil {
				return nil, err
			}
			rs, bs, err := unpackBlocks(raw)
			if err != nil {
				return nil, err
			}
			ranks = append(ranks, rs...)
			blocks = append(blocks, bs...)
		} else {
			raw, err := c.Recv(partner, tagAllGather)
			if err != nil {
				return nil, err
			}
			if err := c.Send(partner, tagAllGather, payload); err != nil {
				return nil, err
			}
			rs, bs, err := unpackBlocks(raw)
			if err != nil {
				return nil, err
			}
			ranks = append(ranks, rs...)
			blocks = append(blocks, bs...)
		}
	}
	out := make([][]byte, p)
	for i, rk := range ranks {
		out[rk] = blocks[i]
	}
	return out, nil
}

func allGatherViaRoot(c Communicator, data []byte) ([][]byte, error) {
	parts, err := Gather(c, 0, data)
	if err != nil {
		return nil, err
	}
	var payload []byte
	if c.Rank() == 0 {
		ranks := make([]int, c.Size())
		for i := range ranks {
			ranks[i] = i
		}
		payload = packBlocks(ranks, parts)
	}
	raw, err := Broadcast(c, 0, payload)
	if err != nil {
		return nil, err
	}
	ranks, blocks, err := unpackBlocks(raw)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.Size())
	for i, rk := range ranks {
		out[rk] = blocks[i]
	}
	return out, nil
}

// AllToAll performs a personalised exchange: parts[i] goes to rank i; the
// result's entry j is the payload rank j addressed to this rank. parts must
// have length Size(). parts[Rank()] is passed through locally.
func AllToAll(c Communicator, parts [][]byte) ([][]byte, error) {
	countCall(c, OpAllToAll)
	p, r := c.Size(), c.Rank()
	if len(parts) != p {
		return nil, fmt.Errorf("comm: alltoall: got %d parts, want %d", len(parts), p)
	}
	out := make([][]byte, p)
	out[r] = parts[r]
	for i := 1; i < p; i++ {
		var sendTo, recvFrom int
		if isPow2(p) {
			sendTo = r ^ i
			recvFrom = r ^ i
		} else {
			sendTo = (r + i) % p
			recvFrom = (r - i + p) % p
		}
		if r < sendTo || !isPow2(p) {
			if err := c.Send(sendTo, tagAllToAll, parts[sendTo]); err != nil {
				return nil, err
			}
			raw, err := c.Recv(recvFrom, tagAllToAll)
			if err != nil {
				return nil, err
			}
			out[recvFrom] = raw
		} else {
			raw, err := c.Recv(recvFrom, tagAllToAll)
			if err != nil {
				return nil, err
			}
			if err := c.Send(sendTo, tagAllToAll, parts[sendTo]); err != nil {
				return nil, err
			}
			out[recvFrom] = raw
		}
	}
	return out, nil
}

// Int64sToBytes encodes a []int64 little-endian.
func Int64sToBytes(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// BytesToInt64s decodes Int64sToBytes output.
func BytesToInt64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("comm: int64 payload length %d not multiple of 8", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// AllReduceInt64 combines equal-length vectors element-wise with op across
// all ranks; every rank returns the combined vector. Power-of-two groups use
// reduce-scatter + all-gather (Table 1's O(ts·log p + tw·m) global combine);
// other sizes use a binomial reduce followed by a broadcast.
func AllReduceInt64(c Communicator, v []int64, op func(a, b int64) int64) ([]int64, error) {
	countCall(c, OpReduce)
	res, err := allReduceRaw(c, Int64sToBytes(v), func(a, b []byte) ([]byte, error) {
		av, err := BytesToInt64s(a)
		if err != nil {
			return nil, err
		}
		bv, err := BytesToInt64s(b)
		if err != nil {
			return nil, err
		}
		if len(av) != len(bv) {
			return nil, fmt.Errorf("comm: allreduce length mismatch %d vs %d", len(av), len(bv))
		}
		for i := range av {
			av[i] = op(av[i], bv[i])
		}
		return Int64sToBytes(av), nil
	}, 8)
	if err != nil {
		return nil, err
	}
	return BytesToInt64s(res)
}

// allReduceRaw combines byte vectors whose element size is elem bytes.
// combine must be associative and commutative on aligned vectors.
func allReduceRaw(c Communicator, data []byte, combine func(a, b []byte) ([]byte, error), elem int) ([]byte, error) {
	p := c.Size()
	if p == 1 {
		return data, nil
	}
	if isPow2(p) && len(data) >= elem*p {
		return allReduceRS(c, data, combine, elem)
	}
	return allReduceTree(c, data, combine, tagReduce)
}

// AllReduceBytes combines opaque byte payloads across ranks with a custom
// associative, commutative combine function; every rank returns the result.
// Used for reductions whose element type is richer than a numeric vector
// (e.g. split candidates under their deterministic total order).
func AllReduceBytes(c Communicator, data []byte, combine func(a, b []byte) ([]byte, error)) ([]byte, error) {
	countCall(c, OpReduce)
	if c.Size() == 1 {
		return data, nil
	}
	return allReduceTree(c, data, combine, tagReduce)
}

// allReduceTree: binomial reduce to rank 0, then broadcast, all on the
// caller's tag so the reduction's traffic stays in one class.
func allReduceTree(c Communicator, data []byte, combine func(a, b []byte) ([]byte, error), tag Tag) ([]byte, error) {
	p, r := c.Size(), c.Rank()
	acc := append([]byte(nil), data...)
	for mask := 1; mask < p; mask <<= 1 {
		if r&mask != 0 {
			if err := c.Send(r-mask, tag, acc); err != nil {
				return nil, err
			}
			break
		}
		if r+mask < p {
			other, err := c.Recv(r+mask, tag)
			if err != nil {
				return nil, err
			}
			if acc, err = combine(acc, other); err != nil {
				return nil, err
			}
		}
	}
	return broadcastTag(c, 0, acc, tag)
}

// allReduceRS: recursive-halving reduce-scatter followed by recursive-
// doubling all-gather, for power-of-two p. The vector is split into p chunks
// on element boundaries; after reduce-scatter rank r holds the fully reduced
// chunk r, and the all-gather reassembles the full vector everywhere. The
// per-byte term is O(tw·m), independent of p.
func allReduceRS(c Communicator, data []byte, combine func(a, b []byte) ([]byte, error), elem int) ([]byte, error) {
	p, r := c.Size(), c.Rank()
	nElems := len(data) / elem
	if len(data)%elem != 0 {
		return nil, fmt.Errorf("comm: allreduce payload %d not a multiple of element size %d", len(data), elem)
	}
	chunk := (nElems + p - 1) / p
	chunkByte := func(cidx int) int { // byte offset where chunk cidx starts
		e := cidx * chunk
		if e > nElems {
			e = nElems
		}
		return e * elem
	}
	rangeBytes := func(loChunk, hiChunk int) []byte {
		return data[chunkByte(loChunk):chunkByte(hiChunk)]
	}
	exchange := func(partner int, payload []byte, tag Tag) ([]byte, error) {
		if r < partner {
			if err := c.Send(partner, tag, payload); err != nil {
				return nil, err
			}
			return c.Recv(partner, tag)
		}
		raw, err := c.Recv(partner, tag)
		if err != nil {
			return nil, err
		}
		if err := c.Send(partner, tag, payload); err != nil {
			return nil, err
		}
		return raw, nil
	}

	data = append([]byte(nil), data...)
	lo, hi := 0, p // chunk range this rank is responsible for
	for mask := p / 2; mask >= 1; mask >>= 1 {
		partner := r ^ mask
		mid := (lo + hi) / 2
		var sendPart, keepLo, keepHi int
		if r&mask == 0 {
			sendPart, keepLo, keepHi = 1, lo, mid // send upper half [mid,hi)
		} else {
			sendPart, keepLo, keepHi = 0, mid, hi // send lower half [lo,mid)
		}
		var payload []byte
		if sendPart == 1 {
			payload = rangeBytes(mid, hi)
		} else {
			payload = rangeBytes(lo, mid)
		}
		recv, err := exchange(partner, payload, tagReduce)
		if err != nil {
			return nil, err
		}
		mine := rangeBytes(keepLo, keepHi)
		if len(recv) != len(mine) {
			return nil, fmt.Errorf("comm: allreduce chunk mismatch: %d vs %d", len(recv), len(mine))
		}
		combined, err := combine(mine, recv)
		if err != nil {
			return nil, err
		}
		copy(mine, combined)
		lo, hi = keepLo, keepHi
	}
	// All-gather the reduced chunks by recursive doubling. After the
	// reduce-scatter, rank r holds exactly chunk r (lo == r, hi == r+1); the
	// chunk indices track rank bits, so at step mask the partner's aligned
	// block of `mask` chunks starts at lo ^ mask.
	for mask := 1; mask < p; mask <<= 1 {
		partner := r ^ mask
		recv, err := exchange(partner, rangeBytes(lo, hi), tagAllGather)
		if err != nil {
			return nil, err
		}
		partnerLo := lo ^ mask
		want := chunkByte(partnerLo+mask) - chunkByte(partnerLo)
		if len(recv) != want {
			return nil, fmt.Errorf("comm: allgather block mismatch: got %d bytes, want %d", len(recv), want)
		}
		copy(data[chunkByte(partnerLo):], recv)
		if partnerLo < lo {
			lo = partnerLo
		} else {
			hi = partnerLo + mask
		}
	}
	return data, nil
}

// PrefixSumInt64 returns the inclusive prefix sum across ranks: rank r gets
// sum of all ranks' vectors with index <= r, element-wise. Hillis–Steele
// scan in ceil(log2 p) rounds.
func PrefixSumInt64(c Communicator, v []int64) ([]int64, error) {
	countCall(c, OpScan)
	p, r := c.Size(), c.Rank()
	result := append([]int64(nil), v...)
	accum := append([]int64(nil), v...)
	for d := 1; d < p; d <<= 1 {
		if r+d < p {
			if err := c.Send(r+d, tagScan, Int64sToBytes(accum)); err != nil {
				return nil, err
			}
		}
		if r >= d {
			raw, err := c.Recv(r-d, tagScan)
			if err != nil {
				return nil, err
			}
			other, err := BytesToInt64s(raw)
			if err != nil {
				return nil, err
			}
			if len(other) != len(accum) {
				return nil, fmt.Errorf("comm: prefix sum length mismatch")
			}
			for i := range accum {
				accum[i] += other[i]
				result[i] += other[i]
			}
		}
	}
	return result, nil
}

// MinLoc finds the global minimum of value across ranks and returns it along
// with the payload attached by the rank that holds it. Ties break toward the
// lower rank, making the result deterministic and independent of reduction
// order. Every rank receives the same (value, payload).
func MinLoc(c Communicator, value float64, payload []byte) (float64, []byte, error) {
	countCall(c, OpMinLoc)
	encode := func(v float64, rank int64, pl []byte) []byte {
		out := make([]byte, 16, 16+len(pl))
		binary.LittleEndian.PutUint64(out[0:], math.Float64bits(v))
		binary.LittleEndian.PutUint64(out[8:], uint64(rank))
		return append(out, pl...)
	}
	decode := func(b []byte) (float64, int64, []byte, error) {
		if len(b) < 16 {
			return 0, 0, nil, fmt.Errorf("comm: minloc payload too short")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
			int64(binary.LittleEndian.Uint64(b[8:])), b[16:], nil
	}
	res, err := allReduceTree(c, encode(value, int64(c.Rank()), payload), func(a, b []byte) ([]byte, error) {
		av, ar, ap, err := decode(a)
		if err != nil {
			return nil, err
		}
		bv, br, bp, err := decode(b)
		if err != nil {
			return nil, err
		}
		if bv < av || (bv == av && br < ar) {
			return encode(bv, br, bp), nil
		}
		return encode(av, ar, ap), nil
	}, tagMinLoc)
	if err != nil {
		return 0, nil, err
	}
	v, _, pl, err := decode(res)
	return v, pl, err
}
