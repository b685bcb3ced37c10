package main

import (
	"runtime"
	"time"
)

// The replay workload is CPU-bound, and the shared VM it was tuned on
// changes speed by 10-20% over minutes, together for every CPU-bound
// thing in it. Its throughput and latency are therefore reported at a
// reference machine speed: each is scaled by how long a fixed reference
// kernel takes in the same run, relative to refNominalMs. The kernel runs
// after every paper history and after every bigdoc pass, outside the
// timed batches. Each paper pass is scaled by the mean of its own six
// kernel times; bigdoc, which has one kernel time per pass of several
// seconds, by the run's median kernel time.
//
// Over a 6-minute calibration on that VM (paper passes back to back, the
// kernel after each history), the coefficient of variation of the median
// pass time over 12-pass windows, about one run's worth, was 0.090
// unscaled and 0.049 scaled. Over eight 30 s runs in a noisy period the
// spread (interquartile range over median) of ops_s fell from 0.167 to
// 0.066, and of deliver_p50_ms from 0.106 to 0.076.
//
// The kernel is the benchmark's own code, so no change to the program
// moves it. It allocates nothing, stores no pointers and runs right after
// a forced collection, so the program's garbage and collector do not slow
// it either. The unscaled rates are the paper.replay_ops_s and
// bigdoc.replay_ops_s rows, and the kernel's median time is the
// bench.ref_kernel_ms row.

// refNominalMs is the reference kernel's time on the 2-vCPU 2.1 GHz VM
// the benchmark was tuned on: a replay figure reads as it would there.
const refNominalMs = 16.0

// The kernel has two parts, because the replay inputs stress both a
// cache-resident tree (paper) and memory beyond L2 (bigdoc). In an
// earlier calibration, each part alone and their sum tracked the paper
// pass time about equally well.
const (
	// refNodes is the size of the search tree: about 512 KiB, inside
	// L2 like a paper document.
	refNodes = 1 << 15
	// refProbes is how many lookups one kernel run makes.
	refProbes = 35_000
	// refChaseLen is the length of the pointer-chase cycle: 8 MiB of
	// uint32 indexes, beyond L2 like a bigdoc replica.
	refChaseLen = 1 << 21
	// refChaseSteps is how many steps one kernel run takes.
	refChaseSteps = 70_000
)

// speedRef is the reference kernel: lookups in a binary search tree held
// in flat arrays (a branchy walk like the core's), then a chase through a
// random cyclic permutation (a cache miss per step).
type speedRef struct {
	key         []uint32
	left, right []int32
	probes      []uint32
	chase       []uint32
	want        int
}

// xorshift is the kernel's fixed pseudo-random sequence.
type xorshift uint64

func (x *xorshift) next() uint32 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint32(*x >> 32)
}

func newSpeedRef() *speedRef {
	r := &speedRef{
		key:   make([]uint32, 0, refNodes),
		left:  make([]int32, 0, refNodes),
		right: make([]int32, 0, refNodes),
		chase: make([]uint32, refChaseLen),
	}
	x := xorshift(88172645463325252)
	for len(r.key) < refNodes {
		r.insert(x.next())
	}
	// Half the probes are keys in the tree, half are fresh values.
	for i := 0; i < refProbes; i++ {
		if i%2 == 0 {
			r.probes = append(r.probes, r.key[int(x.next())%refNodes])
		} else {
			r.probes = append(r.probes, x.next())
		}
	}
	// Sattolo's shuffle: one cycle through every slot, so the chase
	// never settles into a short, cached loop.
	for i := range r.chase {
		r.chase[i] = uint32(i)
	}
	for i := len(r.chase) - 1; i > 0; i-- {
		j := int(x.next()) % i
		r.chase[i], r.chase[j] = r.chase[j], r.chase[i]
	}
	r.want = r.run()
	return r
}

func (r *speedRef) insert(k uint32) {
	n := int32(len(r.key))
	r.key, r.left, r.right = append(r.key, k), append(r.left, -1), append(r.right, -1)
	if n == 0 {
		return
	}
	for i := int32(0); ; {
		child := &r.right[i]
		if k < r.key[i] {
			child = &r.left[i]
		}
		if *child < 0 {
			*child = n
			return
		}
		i = *child
	}
}

// run looks every probe up, then chases the permutation, and returns the
// number of probes found plus the slot the chase ended at.
func (r *speedRef) run() int {
	hits := 0
	for _, k := range r.probes {
		i := int32(0)
		for i >= 0 && r.key[i] != k {
			if k < r.key[i] {
				i = r.left[i]
			} else {
				i = r.right[i]
			}
		}
		if i >= 0 {
			hits++
		}
	}
	at := uint32(0)
	for i := 0; i < refChaseSteps; i++ {
		at = r.chase[at]
	}
	return hits + int(at)
}

// measure collects, then times one kernel run: wall time in ms and
// process CPU time. It reports false if the run's result differs from
// the first run's.
func (r *speedRef) measure() (float64, time.Duration, bool) {
	runtime.GC()
	t0, cpu0 := time.Now(), cpuTime()
	got := r.run()
	return ms(time.Since(t0)), cpuTime() - cpu0, got == r.want
}
