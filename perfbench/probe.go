package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host's memory system is shared with other tenants, and its speed
// drifts by up to 2× in spells of tens of seconds, while a register-only
// loop stays within a few percent (see NOTES.md). Every workload here is
// memory-bound enough to follow that drift, so raw wall and CPU times of
// the same code differ by more than any useful bound between two sets of
// runs. memProbe measures the drift with a fixed, program-independent
// piece of work: random read-modify-writes over a 64 MB buffer, whose
// time per access tracks the workloads' round-to-round slowdown with a
// slope near 1. Host times are divided by probe/probeRefNs, so they read
// as if the memory system ran at the reference speed.
const (
	probeBytes = 64 << 20
	probeSteps = 100_000
	// probeReps is how many times one reading repeats the probe; the
	// reading is their median.
	probeReps = 8
	// probeRefNs is the probe's time per access on the reference host in
	// a quiet spell.
	probeRefNs = 20.0
)

// memProbe is the probe's buffer, mapped outside the Go heap so that it
// changes neither heap_mb nor the garbage collector's pacing.
type memProbe struct {
	buf []uint64
	x   uint64
}

func newMemProbe() (*memProbe, error) {
	b, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map probe buffer: %w", err)
	}
	p := &memProbe{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), probeBytes/8), x: 1}
	// Fault every page in now, so no sample pays for it.
	for i := 0; i < len(p.buf); i += 512 {
		p.buf[i] = 1
	}
	return p, nil
}

// sample returns one probe reading: the median time per access, in ns,
// over probeReps runs of the probe.
func (p *memProbe) sample() float64 {
	mask := uint64(len(p.buf) - 1)
	ns := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		x := p.x
		t0 := time.Now()
		for i := 0; i < probeSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			p.buf[(x>>20)&mask]++
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/probeSteps)
		p.x = x
	}
	return median(ns)
}
