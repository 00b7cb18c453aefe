package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference box is a two-core virtual machine. Its hypervisor takes the
// cores away in bursts — /proc/stat has shown 0% stolen in one five-second
// stretch and 25% in the next — and while that lasts every wall-clock
// reading is a reading of the neighbours. Stolen time is the one kind of
// interference the guest can see, so the benchmark looks: it logs the
// steal counter while it measures, cuts the measuring time into slices
// (a repetition, a second of traffic, a run of windows), and reports each
// end-to-end metric from the slices during which the machine was its own.

// stealLog samples the machine-wide stolen and total CPU time ten times a
// second.
type stealLog struct {
	mu      sync.Mutex
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

type stealSample struct {
	at           time.Time
	stolen, busy uint64 // jiffies, summed over CPUs; busy includes idle
}

func startStealLog() *stealLog {
	l := &stealLog{stop: make(chan struct{}), done: make(chan struct{})}
	l.sample()
	go func() {
		defer close(l.done)
		tk := time.NewTicker(100 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-l.stop:
				l.sample()
				return
			case <-tk.C:
				l.sample()
			}
		}
	}()
	return l
}

func (l *stealLog) close() {
	close(l.stop)
	<-l.done
}

func (l *stealLog) sample() {
	stolen, busy := readCPUTimes()
	l.mu.Lock()
	l.samples = append(l.samples, stealSample{time.Now(), stolen, busy})
	l.mu.Unlock()
}

// share is the fraction of CPU time stolen between from and to, read off
// the samples that bracket the interval; 0 where the kernel does not say.
func (l *stealLog) share(from, to time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.samples
	lo := sort.Search(len(s), func(i int) bool { return s[i].at.After(from) }) - 1
	hi := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(to) })
	lo, hi = max(lo, 0), min(hi, len(s)-1)
	if hi <= lo || s[hi].busy == s[lo].busy {
		return 0
	}
	return float64(s[hi].stolen-s[lo].stolen) / float64(s[hi].busy-s[lo].busy)
}

// readCPUTimes parses the aggregate "cpu" line of /proc/stat:
// user nice system idle iowait irq softirq steal ...
func readCPUTimes() (stolen, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:9] {
		v, _ := strconv.ParseUint(field, 10, 64)
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total
}

// quietShare is the most stolen CPU time a slice may have seen and still
// count as the machine's own. Quiet hours show 0 to 2%, bursts 10 to 25%.
const quietShare = 0.05

// quietSlices picks the slices to report from, given each slice's stolen
// share: every slice at or under quietShare, or — on a stretch so busy that
// fewer than a third qualify — the third with the least stolen.
func quietSlices(shares []float64) []int {
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
	keep := (len(order) + 2) / 3
	for keep < len(order) && shares[order[keep]] <= quietShare {
		keep++
	}
	kept := order[:keep]
	sort.Ints(kept)
	return kept
}
