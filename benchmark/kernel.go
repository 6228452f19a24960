package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// calRefMs is the calibration kernel's median on the reference machine
// (the 2-vCPU box the bounds in BENCHMARK.json were derived on, in a
// quiet period). Frozen: calibrated values read as "time at reference
// machine speed", so changing it rescales every calibrated metric.
const calRefMs = 2.8

const (
	kernelKeys      = 8_000
	kernelNearSlots = 1 << 17 // 1 MiB of uint64: misses L1, fits the box's 2 MiB L2
	kernelFarSlots  = 1 << 21 // 16 MiB: misses L2, lives in the L3 shared with the neighbours
	kernelNearProbe = 60_000
	kernelFarProbe  = 20_000
	// kernelRuns is how many times the kernel runs per tick. The first
	// run after the program has been busy is cache-cold and the later
	// ones warm; the mix tracks the program better than warm runs alone.
	kernelRuns = 3
	// calSpan is how many ticks either side of a sample's own contribute
	// kernel runs to its calibration.
	calSpan = 4
)

// kernel is the benchmark-owned calibration workload: a string sort,
// hash probes into a table that fits L2 and hash probes into a table
// that does not, over preallocated buffers. The shared box slows down
// and speeds up over tens of seconds, and what it slows is memory
// access, not arithmetic — a pure compute loop does not see the drift at
// all — so a timed sample divided by the kernel's time in the
// surrounding ticks cancels most of it (README.md has the measurements
// behind the mix). The kernel must not allocate — an allocating kernel
// would slow down as the program's live heap grows and turn a heap
// saving into an apparent slowdown — and it touches only a few MB per
// run, so it does not evict the program's data before the operation it
// precedes.
type kernel struct {
	master []string // unsorted keys, never modified
	work   []string // sorted in place on every run
	near   probeSet
	far    probeSet
	sink   float64
}

// probeSet is an open-addressing set (0 = empty slot) at half load and
// a fixed list of keys to look up, half of them present.
type probeSet struct {
	table  []uint64
	probes []uint64
}

func newProbeSet(rng *rand.Rand, slots, probes int) probeSet {
	s := probeSet{table: make([]uint64, slots), probes: make([]uint64, probes)}
	mask := uint64(slots - 1)
	present := make([]uint64, slots/2)
	for i := range present {
		v := rng.Uint64() | 1
		present[i] = v
		at := mix(v) & mask
		for s.table[at] != 0 {
			at = (at + 1) & mask
		}
		s.table[at] = v
	}
	for i := range s.probes {
		if i%2 == 0 {
			s.probes[i] = present[rng.IntN(len(present))]
		} else {
			s.probes[i] = rng.Uint64() | 1 // almost surely absent
		}
	}
	return s
}

// lookup probes every key and returns the float sum of the probe
// lengths.
func (s *probeSet) lookup() float64 {
	mask := uint64(len(s.table) - 1)
	acc := 0.0
	for _, v := range s.probes {
		steps := 1
		for at := mix(v) & mask; s.table[at] != 0 && s.table[at] != v; at = (at + 1) & mask {
			steps++
		}
		acc += float64(steps) * 1.0000001
	}
	return acc
}

func mix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return v
}

func newKernel() *kernel {
	// The kernel's inputs are fixed: it measures the machine, not the
	// workload seed.
	rng := rand.New(rand.NewPCG(0xCA1, 0xB8A7E))
	k := &kernel{
		master: make([]string, kernelKeys),
		work:   make([]string, kernelKeys),
		near:   newProbeSet(rng, kernelNearSlots, kernelNearProbe),
		far:    newProbeSet(rng, kernelFarSlots, kernelFarProbe),
	}
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range k.master {
		// A shared prefix makes comparisons read past the first byte.
		b := []byte("topic/")
		for j := 0; j < 14; j++ {
			b = append(b, letters[rng.IntN(len(letters))])
		}
		k.master[i] = string(b)
	}
	return k
}

// run executes the kernel once and returns its wall time in ms.
func (k *kernel) run() float64 {
	t0 := time.Now()
	copy(k.work, k.master)
	slices.Sort(k.work)
	k.sink += float64(len(k.work[0])) + k.near.lookup() + k.far.lookup()
	return ms(time.Since(t0))
}

// calibrate rescales raw[i], a sample taken right after tick tickOf[i],
// by the kernel's median over ticks tickOf[i]-calSpan..tickOf[i]+calSpan,
// so that the result reads as the sample's duration at reference machine
// speed. kern holds kernelRuns samples per tick.
func calibrate(raw []float64, tickOf []int, kern []float64) []float64 {
	out := make([]float64, len(raw))
	ticks := len(kern) / kernelRuns
	for i := range raw {
		lo, hi := max(tickOf[i]-calSpan, 0), min(tickOf[i]+calSpan+1, ticks)
		out[i] = raw[i] * calRefMs / median(kern[lo*kernelRuns:hi*kernelRuns])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
