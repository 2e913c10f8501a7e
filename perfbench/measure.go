package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sampler reads process CPU time at the edges of the measured window's
// bins, runtime.MemStats at the window's two ends, and the peak RSS
// reached inside it.
type sampler struct {
	edges    []int64 // actual sample times, ns since the phase start
	cpu      []int64 // process user+sys CPU ns at each edge
	ms0, ms1 runtime.MemStats
	rssMiB   float64
	rssReset bool // VmHWM was reset at the window start
}

func newSampler(bins int) *sampler {
	return &sampler{edges: make([]int64, bins+1), cpu: make([]int64, bins+1)}
}

func (s *sampler) run(start time.Time, win window) {
	bins := len(s.edges) - 1
	for i := 0; i <= bins; i++ {
		at := win.from + int64(i)*(win.to-win.from)/int64(bins)
		if wait := time.Until(start.Add(time.Duration(at))); wait > 0 {
			time.Sleep(wait)
		}
		if i == 0 {
			runtime.ReadMemStats(&s.ms0)
			s.rssReset = resetPeakRSS()
		}
		s.cpu[i] = cpuNS()
		s.edges[i] = time.Since(start).Nanoseconds()
	}
	runtime.ReadMemStats(&s.ms1)
	s.rssMiB = peakRSSMiB()
}

// cpuNS is the process's user+sys CPU time (getrusage).
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) for this
// process; it reports false where the kernel refuses.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is VmHWM from /proc/self/status, falling back to the
// lifetime peak from getrusage.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero on failure, reported as such
	return float64(ru.Maxrss) / 1024
}

// settle collects garbage and returns freed memory to the OS, so one
// phase's leftovers do not count in the next one's RSS.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// phaseStats summarizes one served phase.
type phaseStats struct {
	attempted, failed int
	failures          []string // the first few failure messages

	throughput float64 // MiB/s answered correctly, median over bins
	latP50     float64 // ms
	latP99     float64 // ms
	latN       int
	cpuPerKiB  float64 // ns, median over bins
	bins       int

	queueP50, queueP99, parseP50, httpP50 float64 // ms
	lateP99                               float64 // ms
	allocsPerReq, gcPerSec                float64
	rssMiB                                float64
	rssReset                              bool

	served map[int]outcome // first correct concluding answer per document
}

// summarize reduces a phase's tally. Latency and the per-layer response
// fields cover the requests due inside the window; throughput and CPU
// per KiB are medians over the window's bins, by completion time. Every
// record, warm-up included, counts in attempted and failed.
func summarize(t *tally, win window, smp *sampler) phaseStats {
	ps := phaseStats{served: t.served, failures: t.fails, bins: len(smp.edges) - 1}
	recs := t.recs
	sort.Slice(recs, func(i, j int) bool { return recs[i].sent < recs[j].sent })
	binBytes := make([]float64, ps.bins)
	var lat, queue, parse, overhead, late []float64
	completed := 0
	for i := range recs {
		r := &recs[i]
		ps.attempted++
		if r.failed {
			ps.failed++
			continue
		}
		if r.done >= smp.edges[0] && r.done < smp.edges[ps.bins] {
			completed++
			b := sort.Search(ps.bins, func(b int) bool { return smp.edges[b+1] > r.done })
			binBytes[b] += float64(r.bytes)
		}
		if !win.holds(r.sent) {
			continue
		}
		lat = append(lat, ms(r.latency()))
		queue = append(queue, ms(r.queueNS))
		parse = append(parse, ms(r.parseNS))
		overhead = append(overhead, ms(r.latency()-r.queueNS-r.parseNS))
		late = append(late, ms(r.late))
	}
	thr := make([]float64, ps.bins)
	cpu := make([]float64, ps.bins)
	for b := range thr {
		secs := float64(smp.edges[b+1]-smp.edges[b]) / 1e9
		thr[b] = binBytes[b] / (1 << 20) / secs
		cpu[b] = math.Inf(1)
		if binBytes[b] > 0 {
			cpu[b] = float64(smp.cpu[b+1]-smp.cpu[b]) / (binBytes[b] / 1024)
		}
	}
	ps.throughput, ps.cpuPerKiB = median(thr), median(cpu)
	ps.latN = len(lat)
	groups := max(1, min(len(lat)/latencyGroup, ps.bins))
	ps.latP50, ps.latP99 = groupQuantile(lat, groups, 0.50), groupQuantile(lat, groups, 0.99)
	ps.queueP50, ps.queueP99 = quantile(queue, 0.50), quantile(queue, 0.99)
	ps.parseP50, ps.httpP50 = quantile(parse, 0.50), quantile(overhead, 0.50)
	ps.lateP99 = quantile(late, 0.99)
	if completed > 0 {
		ps.allocsPerReq = float64(smp.ms1.Mallocs-smp.ms0.Mallocs) / float64(completed)
	}
	window := float64(smp.edges[ps.bins]-smp.edges[0]) / 1e9
	ps.gcPerSec = float64(smp.ms1.NumGC-smp.ms0.NumGC) / window
	ps.rssMiB, ps.rssReset = smp.rssMiB, smp.rssReset
	return ps
}

// latencyGroup is the fewest requests a latency percentile is taken
// over: 1000 leaves ten samples beyond the p99.
const latencyGroup = 1000

// groupQuantile splits xs (in send order) into consecutive groups — one
// per bin of the window where each still holds latencyGroup samples —
// and returns the median of the groups' q-quantiles, so a host stall
// that hits one stretch of the window moves one group's figure rather
// than the result.
func groupQuantile(xs []float64, groups int, q float64) float64 {
	per := make([]float64, groups)
	for g := range per {
		per[g] = quantile(xs[g*len(xs)/groups:(g+1)*len(xs)/groups], q)
	}
	return median(per)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
