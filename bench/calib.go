package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"syscall"
)

// The machine this benchmark runs on is a few cores of a shared host,
// and what the other tenants do moves the cost of identical work for
// minutes at a time: fifteen runs of one seed of sim-paper-sweep fell
// into a fast and a slow mode 7 % apart, each lasting whole runs, and
// the driver's machine spread the same figure by 13 % and 30 % in two
// sets of ten runs. No statistic taken inside a run sees past a mode
// that outlasts the run. So every round is bracketed by bursts of a
// fixed reference kernel, and CPU-bound timings are reported at the
// reference speed: measured x refNominalUs / the kernel's cost beside
// that round. What slows the whole machine cancels; what a change to
// the code under test does to its own cost does not, because the kernel
// is the benchmark's and never changes.

// refNominalUs is the kernel's cost on the machine this was built on in
// its fast mode, which keeps normalised figures in that machine's
// microseconds.
const refNominalUs = 260.0

const (
	refArenaWords = 2 << 20 // 8 MB of uint32: past the L2, inside the L3
	refHeapSize   = 1024
	refSteps      = 2000
	refBurstCalls = 16
)

// refKernel is work shaped like the code under test and independent of
// it: dependent loads through a random cycle too big for the L2 (table
// lookups, pointer chasing), a replace-top on a small binary heap (the
// event queue), and integer arithmetic. It allocates nothing, and its
// arena is mapped outside the Go heap, so it neither feeds nor paces
// the collector of the program under test.
type refKernel struct {
	arena []byte
	heap  [refHeapSize]uint64
	pos   uint32
	x     uint64
	sink  uint64
}

func newRefKernel() (*refKernel, error) {
	arena, err := syscall.Mmap(-1, 0, 4*refArenaWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calib: mapping the reference kernel's arena: %w", err)
	}
	k := &refKernel{arena: arena, x: 0x9e3779b97f4a7c15}
	// Sattolo's shuffle: one cycle through every word.
	rng := rand.New(rand.NewSource(1))
	perm := make([]uint32, refArenaWords)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, next := range perm {
		binary.LittleEndian.PutUint32(arena[4*i:], next)
	}
	for i := range k.heap {
		k.heap[i] = uint64(i) << 8
	}
	return k, nil
}

func (k *refKernel) close() { _ = syscall.Munmap(k.arena) } // nothing to do about a failed unmap at exit

// call is one unit of reference work.
func (k *refKernel) call() {
	pos, x, h := k.pos, k.x, &k.heap
	for n := 0; n < refSteps; n++ {
		pos = binary.LittleEndian.Uint32(k.arena[4*pos:])
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Replace the top with a later key and sift it down.
		key := h[0] + 1 + (x^uint64(pos))&0xffff
		i := 0
		for {
			l := 2*i + 1
			if l >= refHeapSize {
				break
			}
			if r := l + 1; r < refHeapSize && h[r] < h[l] {
				l = r
			}
			if key <= h[l] {
				break
			}
			h[i] = h[l]
			i = l
		}
		h[i] = key
	}
	k.pos, k.x = pos, x
	k.sink += x + h[0]
}

// bracket prices stretches of work that follow one another: a burst
// opens the first, and the burst that closes a stretch opens the next.
type bracket struct {
	k    *refKernel
	last float64
}

func (k *refKernel) open() *bracket { return &bracket{k, k.burst()} }

// close ends a stretch and returns the kernel's cost beside it: the
// mean of the bursts before and after.
func (b *bracket) close() float64 {
	next := b.k.burst()
	ref := (b.last + next) / 2
	b.last = next
	return ref
}

// burst runs the kernel refBurstCalls times and returns the median
// call's CPU time in microseconds.
func (k *refKernel) burst() float64 {
	var us [refBurstCalls]float64
	for i := range us {
		c0 := cpuNow()
		k.call()
		us[i] = float64(cpuNow()-c0) / 1e3
	}
	return median(us[:])
}
