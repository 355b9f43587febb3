package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are shared: the speed of a vCPU
// drifts by 10–40% over seconds to minutes as other tenants load the
// host's cores, last-level cache and memory. Two measures take that drift
// out of the end-to-end times.
//
//   - Times are CPU time, read from the kernel's precise per-thread clocks,
//     not wall-clock time. CPU time leaves out the time the hypervisor
//     takes the vCPU away (steal).
//   - A fixed reference kernel runs between the requests, about refShare of
//     the measured phase. It exercises what the workloads depend on: integer
//     arithmetic, streaming reads through the cache and from memory, and
//     dependent loads that miss the cache. A time is reported as measured
//     CPU time × (refUnitMS / u)^refExponent, where u is the median CPU time
//     of one kernel unit in the same run: the time the work would take on a
//     machine where a unit takes refUnitMS.
//
// The kernel is part of the benchmark, not of the repository, so no change
// to the repository changes what it measures. Its memory is mapped outside
// the Go heap, so the heap metrics do not see it.

// refUnitMS is the nominal CPU time of one reference unit, in ms: about
// what it takes on the 2-vCPU KVM guest the benchmark was defined on.
const refUnitMS = 20.0

// refExponent is how much more the workloads' CPU times move with the
// host's load than the kernel's unit does. Over runs of identical code on
// the guest the benchmark was defined on, the slope of log(mean request
// CPU time) against log(median unit) was 1.0 to 2.2 per workload and set,
// with a median of 1.65, and their correlation 0.87 to 0.97. Of the
// exponents 1, 1.5 and 2, 1.5 gave the smallest largest spread over those
// sets (README.md).
const refExponent = 1.5

// refShare is the share of the requests' CPU time that the reference
// kernel gets in the measured phase.
const refShare = 0.15

const (
	refFarBytes  = 64 << 20 // dependent loads and streaming reads from memory
	refNearBytes = 8 << 20  // dependent loads within a cache-sized region
	refScanBytes = 12 << 20 // streaming reads of a cache-sized region
)

// refKernel is the reference kernel's memory and the CPU time of each unit
// it has run.
type refKernel struct {
	mem        []byte
	far, near  []uint32
	scan       []uint64
	pFar, pNea uint32
	off        int
	sink       uint64
	units      []float64
}

func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, refFarBytes+refNearBytes+refScanBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference kernel's memory: %w", err)
	}
	k := &refKernel{
		mem:  mem,
		far:  unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refFarBytes/4),
		near: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[refFarBytes])), refNearBytes/4),
		scan: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[refFarBytes+refNearBytes])), refScanBytes/8),
	}
	cycle(k.far)
	cycle(k.near)
	for i := range k.scan {
		k.scan[i] = uint64(i)
	}
	return k, nil
}

// cycle links the slots of next into one cycle that jumps across the whole
// region: next[i] = (a·i + c) mod len, a full-period generator for a
// power-of-two length, so a walk never settles into a short loop and the
// prefetcher cannot follow it.
func cycle(next []uint32) {
	mask := uint32(len(next) - 1)
	for i := range next {
		next[i] = (2654435769*uint32(i) + 40503) & mask
	}
}

// unit runs one unit of the kernel on a locked thread and records its CPU
// time.
func (k *refKernel) unit() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()

	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	var s uint64
	for _, v := range k.scan {
		s += v
	}
	// A quarter of the far region per unit, as 64-bit words.
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&k.mem[0])), refFarBytes/8)
	n := len(words) / 4
	for _, v := range words[k.off : k.off+n] {
		s += v
	}
	k.off = (k.off + n) % len(words)
	p := k.pNea
	for i := 0; i < 40_000; i++ {
		p = k.near[p]
	}
	k.pNea = p
	q := k.pFar
	for i := 0; i < 20_000; i++ {
		q = k.far[q]
	}
	k.pFar = q
	k.sink += x + s + uint64(p) + uint64(q)

	d := threadCPU() - start
	k.units = append(k.units, float64(d.Nanoseconds())/1e6)
	return d
}

// factor scales a CPU time measured in this run to the reference speed.
func (k *refKernel) factor() float64 {
	return math.Pow(refUnitMS/median(k.units), refExponent)
}

func (k *refKernel) close() error {
	if k.mem == nil {
		return nil
	}
	err := syscall.Munmap(k.mem)
	k.mem, k.far, k.near, k.scan = nil, nil, nil, nil
	return err
}

// The kernel's per-thread and per-process CPU clocks count nanoseconds.
// getrusage is no substitute: it splits CPU time into user and system time
// by sampling at the scheduler tick, and over a few milliseconds it moves in
// steps of a tick.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockCPU(id uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", id, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// checkClocks reports whether the CPU clocks can be read; after it passes,
// cpuTime and threadCPU do not fail.
func checkClocks() error {
	for _, id := range []uintptr{clockProcessCPU, clockThreadCPU} {
		if _, err := clockCPU(id); err != nil {
			return err
		}
	}
	return nil
}

// cpuTime is the CPU time this process has used, all threads.
func cpuTime() time.Duration {
	d, _ := clockCPU(clockProcessCPU)
	return d
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	d, _ := clockCPU(clockThreadCPU)
	return d
}
