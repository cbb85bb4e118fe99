package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark shares runs at a speed that drifts by tens
// of percent over minutes, as other tenants' load comes and goes, so
// two runs minutes apart time the same work very differently. A timed
// run therefore also times a fixed kernel that uses no etap code, at
// quiet moments spread over the run (after each set-up, after each
// campaign point, between the service's round pairs), and reports its
// timings at the reference speed: each measured time is multiplied by
// kernelRef over the median kernel time around it (set-up: the set-ups'
// samples; a campaign round: that round's samples; the service's
// measured phase: all its samples), each rate divided by it. A change
// to etap moves the scaled figures by the share it moves the measured
// ones; the log prints both.

// kernelRef is the kernel's time the figures are scaled to: about its
// time on the 2-vCPU machine the baseline was measured on.
const kernelRef = 25 * time.Millisecond

const (
	kernelWords    = 1 << 20 // 8 MiB of state: beyond the caches, like a trial's memory image
	kernelMemSteps = 1_000_000
	kernelVMSteps  = 2_000_000
)

// kernelMem is the kernel's state, mapped outside the Go heap so it
// counts in no heap metric.
var kernelMem = sync.OnceValue(func() []uint64 {
	b, err := syscall.Mmap(-1, 0, kernelWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mapping the host-speed kernel's memory: %v", err))
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), kernelWords)
})

// kernel runs two phases, as a simulator's trial stresses the machine
// in two ways: a dependent chain of hashing and random read-modify-writes
// over memory beyond the caches, then an interpreter loop (dispatch
// switch, register file, loads and stores, taken and untaken branches)
// over a fixed pseudo-random program. Both phases store to mem, so
// neither can be optimised away.
func kernel() {
	mem := kernelMem()
	x := uint64(0x2545f4914f6cdd1d)
	for n := 0; n < kernelMemSteps; n++ {
		x = splitmix(x)
		mem[x&(kernelWords-1)] += x
	}
	r := [16]uint64{x}
	pc := 0
	for n := 0; n < kernelVMSteps; n++ {
		op := &vmProg[pc]
		switch op.kind {
		case 0:
			r[op.d] = r[op.a] + r[op.b] + op.imm
		case 1:
			r[op.d] = r[op.a] ^ r[op.b]<<3
		case 2:
			r[op.d] = r[op.a] * (r[op.b] | 1)
		case 3:
			r[op.d] = mem[(r[op.a]+op.imm)&(kernelWords-1)]
		case 4:
			mem[(r[op.a]^op.imm)&(kernelWords-1)] = r[op.b]
		case 5:
			r[op.d] = r[op.a] >> (op.imm & 31)
		case 6:
			if r[op.a]&1 == 0 {
				pc = int(op.imm % uint64(len(vmProg)))
				continue
			}
		}
		pc++
		if pc == len(vmProg) {
			pc = 0
		}
	}
}

// vmOp is one instruction of the kernel's interpreter phase.
type vmOp struct {
	kind    uint8
	d, a, b uint8
	imm     uint64
}

// vmProg is the interpreter phase's program, the same in every run.
var vmProg = func() []vmOp {
	rng := uint64(7)
	prog := make([]vmOp, 61)
	for i := range prog {
		rng = splitmix(rng)
		prog[i] = vmOp{kind: uint8(rng % 7), d: uint8(rng >> 8 & 15), a: uint8(rng >> 12 & 15), b: uint8(rng >> 16 & 15), imm: rng >> 20}
	}
	return prog
}()

// hostSpeed collects one run's kernel timings.
type hostSpeed struct {
	samples []float64
}

// sample times the kernel once and returns its time.
func (h *hostSpeed) sample() float64 {
	t := time.Now()
	kernel()
	d := secs(time.Since(t))
	h.samples = append(h.samples, d)
	return d
}

// speedScale is what a time measured while the kernel took the given
// times is multiplied by to give it at the reference speed (and what a
// rate is divided by): kernelRef over their median.
func speedScale(kernelTimes []float64) float64 {
	return secs(kernelRef) / median(kernelTimes)
}

// report sets a metric to its value at the reference speed and logs the
// measured value beside it.
func (b *bench) report(name, unit string, measured, scaled float64) {
	fmt.Fprintf(b.log, "%s: measured %.6g %s, at reference speed %.6g %s\n", name, measured, unit, scaled, unit)
	b.set(name, unit, scaled)
}

// logHost prints the run's kernel timings.
func (b *bench) logHost() {
	h := b.host.samples
	fmt.Fprintf(b.log, "host kernel: median %.2f ms over %d samples (min %.2f, max %.2f), reference %.2f ms\n",
		median(h)*1e3, len(h), percentile(h, 0)*1e3, percentile(h, 100)*1e3, secs(kernelRef)*1e3)
}
