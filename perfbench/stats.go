package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// samples is a set of measurements of one quantity, in its own unit.
type samples []float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) by the nearest-rank rule,
// or 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(q*float64(len(c)) + 0.5)
	if i > 0 {
		i--
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func (s samples) median() float64 { return s.quantile(0.5) }

// weightedMedian returns the value below which half the total weight
// lies, or 0 for an empty set.
func weightedMedian(values, weights samples) float64 {
	if len(values) == 0 {
		return 0
	}
	idx := make([]int, len(values))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += weights[i]
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	acc := 0.0
	for _, i := range idx {
		acc += weights[i]
		if acc >= total/2 {
			return values[i]
		}
	}
	return values[idx[len(idx)-1]]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tail returns the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, with its percentile; with fewer than 100 samples it
// falls back to the maximum (percentile 100).
func (s samples) tail() (value, pct float64) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(len(s))*(1-q) >= 10 {
			return s.quantile(q), q * 100
		}
	}
	return s.quantile(1), 100
}

// slicedCPUPerOp is the median over time slices of the process CPU time
// per op, in µs: slice i ran from cpuAt[i] to cpuAt[i+1] and did ops[i]
// ops. A burst of interference from outside the process moves a few
// slices, not the median.
func slicedCPUPerOp(cpuAt []time.Duration, ops []int) float64 {
	var per samples
	for i, n := range ops {
		if n > 0 {
			per = append(per, float64(cpuAt[i+1]-cpuAt[i])/1e3/float64(n))
		}
	}
	return per.median()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap collects until the live heap stops shrinking (at most eight
// times) and returns the bytes the collector found live. One collection
// is not enough after connections close: what their finalizers hold is
// freed only after the finalizers have run, a cycle or more later, so
// each collection is followed by a pause for them.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	last := uint64(0)
	for i := 0; i < 8; i++ {
		runtime.GC()
		metrics.Read(s)
		v := s[0].Value.Uint64()
		if i > 0 && v >= last {
			return float64(v)
		}
		last = v
		time.Sleep(10 * time.Millisecond)
	}
	return float64(last)
}

// runtimeProbe samples the Go runtime across a measured window: GC CPU
// share, GC pause tail and peak heap. Start it at the window's start and
// stop it at the end.
type runtimeProbe struct {
	cpu0, gc0 float64
	cpuStart  time.Duration
	numGC0    uint32
	stop      chan struct{}
	done      chan struct{}
	mu        sync.Mutex
	peak      uint64 // guarded by mu
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{}), done: make(chan struct{}), cpuStart: cpuTime()}
	p.gc0 = gcCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.numGC0 = ms.NumGC
	go p.sample()
	return p
}

func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// sample tracks the peak of the heap's object bytes every 10 ms.
func (p *runtimeProbe) sample() {
	defer close(p.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		p.mu.Lock()
		if v := s[0].Value.Uint64(); v > p.peak {
			p.peak = v
		}
		p.mu.Unlock()
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

// finish stops the sampler and reports runtime.gc_cpu_frac,
// runtime.gc_pause_p99_ms and runtime.heap_peak_mb.
func (p *runtimeProbe) finish(out map[string]float64) {
	close(p.stop)
	<-p.done
	cpu := cpuTime() - p.cpuStart
	if cpu > 0 {
		out["runtime.gc_cpu_frac"] = (gcCPU() - p.gc0) / cpu.Seconds()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var pauses samples
	for n := p.numGC0 + 1; n <= m.NumGC && int(m.NumGC-n) < len(m.PauseNs); n++ {
		pauses = append(pauses, float64(m.PauseNs[(n+255)%256])/1e6)
	}
	out["runtime.gc_pause_p99_ms"] = pauses.quantile(0.99)
	p.mu.Lock()
	out["runtime.heap_peak_mb"] = float64(p.peak) / (1 << 20)
	p.mu.Unlock()
}

// dirBytes sums the sizes of the regular files under dir. Entries that
// cannot be read are skipped: the sum is a size metric, and the log's
// own reopen is what checks the files.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
