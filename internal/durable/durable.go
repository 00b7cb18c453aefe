// Package durable is the one durable-artifact layer every subsystem that
// persists state goes through: the CRC-32C checksum every on-disk and
// on-wire format carries, the temp+fsync+rename write that makes a file
// appear whole or not at all, the naming rule that sets aside corrupt files
// and marks interrupted writes, and the checkpoint lifecycle every ladder
// of epochs (tree levels, stream windows) shares: the all-or-nothing vote
// that commits an epoch, the collective agreement that resumes a group of
// ranks from the newest epoch all of them can restore, and the one
// retention policy that removes epochs.
package durable

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pclouds/internal/comm"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C (Castagnoli) of b, hardware-accelerated on
// amd64/arm64.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Update extends a running CRC-32C with b.
func Update(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

const (
	// tempInfix marks the temporary WriteFile stages a file in; a crash
	// between create and rename leaves one behind.
	tempInfix = ".tmp-"
	// quarantineSuffix is appended to a corrupt file set aside as evidence.
	quarantineSuffix = ".quarantined"
)

// WriteFile writes data to path atomically: the bytes go to a temporary
// "<base>.tmp-*" file in the destination directory, are fsynced, and only
// then renamed over path. A concurrent reader sees either the old complete
// file or the new one, never a torn file; a failed write leaves path
// untouched and removes the temporary.
func WriteFile(path string, data []byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempInfix+"*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // already closed on the close and rename paths: a no-op
			os.Remove(f.Name())
		}
	}()
	if _, err = f.Write(data); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// QuarantineName is the name a corrupt file at path is set aside under.
// Callers that rename through their own storage layer use it directly.
func QuarantineName(path string) string { return path + quarantineSuffix }

// Quarantine renames a corrupt file aside, preserving the evidence for
// offline scrubbing while making sure no later scan or open consumes the bad
// bytes. It returns the quarantined path.
func Quarantine(path string) (string, error) {
	q := QuarantineName(path)
	if err := os.Rename(path, q); err != nil {
		return "", err
	}
	return q, nil
}

// Quarantined reports whether name was set aside by Quarantine.
func Quarantined(name string) bool { return strings.HasSuffix(name, quarantineSuffix) }

// Live reports whether the file name (a base name or a path) is a live
// artifact: neither an interrupted WriteFile's temporary nor a quarantined
// file. Every directory scan that picks artifacts to load filters by it.
func Live(name string) bool {
	base := filepath.Base(name)
	return !strings.Contains(base, tempInfix) && !Quarantined(base)
}

// Epochs lists, ascending, the positive epoch numbers of the live entries
// in dir whose names match format, a fmt.Sscanf pattern with one %d such as
// "level-%d". A missing dir holds no epochs.
func Epochs(dir, format string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var epochs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), format, &n); err == nil && n > 0 && Live(e.Name()) {
			epochs = append(epochs, n)
		}
	}
	sort.Ints(epochs)
	return epochs, nil
}

// Agree is the all-or-nothing vote: one AllReduce-min of "this rank
// succeeded". It returns true on every rank when every rank passed ok, and
// false on every rank otherwise, so all ranks take the same branch.
func Agree(c comm.Communicator, ok bool) (bool, error) {
	vote := int64(0)
	if ok {
		vote = 1
	}
	all, err := comm.AllReduceInt64(c, []int64{vote}, func(a, b int64) int64 { return min(a, b) })
	if err != nil {
		return false, err
	}
	return all[0] == 1, nil
}

// Prune is the one retention policy of a checkpoint ladder, and the only
// way an epoch is removed. It runs once the group agreed on epoch newest —
// a unanimous commit (Agree) or the resume agreement (Resume) — and keeps
// the keep epochs newest-keep+1 … newest of have, calling remove for every
// other one: older epochs are superseded, newer ones are orphans no peer
// holds. keep = 0 removes every epoch, for a collective fresh start or a
// finished build. It returns the kept epochs, ascending when have is.
// Each rank prunes only its own artifacts, so ranks sharing one directory
// never race.
func Prune(have []int, newest, keep int, remove func(epoch int)) []int {
	var kept []int
	for _, e := range have {
		if e > newest-keep && e <= newest {
			kept = append(kept, e)
			continue
		}
		remove(e)
	}
	return kept
}

// ErrNoEpoch is returned by Resume, on every rank, when no epoch held by
// every rank restores everywhere.
var ErrNoEpoch = errors.New("durable: no checkpoint epoch restorable on every rank")

type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

// Fatal marks a restore error as ending Resume, with no step-down to an
// older epoch: a configuration mismatch or a checkpoint bound to different
// input, which no older epoch could fix.
func Fatal(err error) error { return fatalError{err} }

// ErrPeerFatal is returned by Resume on a rank whose own restore did not
// fail fatally when another rank's did.
var ErrPeerFatal = errors.New("durable: a peer rank's checkpoint restore failed fatally")

// Resume is the collective resume agreement. Every rank passes the distinct
// epochs (tree levels, stream windows) it holds; one AllGather lets every
// rank compute the same candidates, the epochs all ranks hold, newest first,
// so any rank's holes are routed around. Per candidate every rank runs
// restore and the group takes one AllReduce-min vote: 1 restored, 0 failed,
// -1 failed with an error wrapped by Fatal. A candidate any rank failed to
// restore is abandoned everywhere; the first unanimous candidate is returned
// on every rank. A fatal vote ends Resume on every rank in that same round:
// the rank that cast it returns its own error, every other rank
// ErrPeerFatal. With no candidate left Resume returns ErrNoEpoch, wrapping
// this rank's newest restore failure when there was one.
func Resume(c comm.Communicator, have []int, restore func(epoch int) error) (int, error) {
	own := make([]int64, len(have))
	for i, e := range have {
		own[i] = int64(e)
	}
	lists, err := comm.AllGather(c, comm.Int64sToBytes(own))
	if err != nil {
		return 0, err
	}
	held := map[int64]int{}
	for _, raw := range lists {
		epochs, err := comm.BytesToInt64s(raw)
		if err != nil {
			return 0, err
		}
		for _, e := range epochs {
			held[e]++
		}
	}
	var common []int
	for e, n := range held {
		if n == len(lists) {
			common = append(common, int(e))
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(common)))

	var cause error
	for _, epoch := range common {
		rerr := restore(epoch)
		var fatal fatalError
		isFatal := errors.As(rerr, &fatal)
		vote := int64(1)
		switch {
		case isFatal:
			vote = -1
		case rerr != nil:
			vote = 0
		}
		// All-or-nothing: a rank that went ahead alone on an epoch another
		// rank could not restore, or that returned on its own fatal error,
		// would leave its peers blocked in their next collective.
		all, err := comm.AllReduceInt64(c, []int64{vote}, func(a, b int64) int64 { return min(a, b) })
		if err != nil {
			return 0, err
		}
		switch {
		case isFatal:
			return 0, fatal.err
		case all[0] == -1:
			return 0, fmt.Errorf("%w (epoch %d)", ErrPeerFatal, epoch)
		case all[0] == 1:
			return epoch, nil
		}
		if cause == nil {
			cause = rerr
		}
	}
	if cause == nil {
		return 0, ErrNoEpoch
	}
	return 0, fmt.Errorf("%w: %w", ErrNoEpoch, cause)
}
