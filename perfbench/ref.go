package main

import "runtime"

// refPassesPerSecond defines the reference second: the CPU time the
// reference mix takes for this many passes. Throughput is reported per
// reference second instead of per CPU second.
//
// On the shared 2-vCPU Xeon VM this benchmark was tuned on, the program ran
// at a slow and a fast speed for many minutes each, the fast one 1.8 to 2.1
// times the slow one in CPU time, which unlike wall time leaves out only
// hypervisor steal, not a slower host. An earlier form of the reference
// mix, which also allocated, sped up 1.7 to 1.8 times with it, so the rate
// per reference second moved by 1 to 13% where the rate per CPU second
// nearly doubled.
const refPassesPerSecond = 100

// After each round the reference mix runs refWarmPasses untimed passes,
// which bring its data back into the caches the round used, and then
// refTimedPasses timed ones. The amount is fixed, so neither the program's
// memory footprint nor the length of its rounds changes what is timed.
const refWarmPasses, refTimedPasses = 1, 2

// refPerm is a 1 MiB cyclic permutation (Sattolo's shuffle) for the
// pointer chase, and refTable a map whose 4096 keys are all present, so a
// pass allocates nothing: allocating in the mix made the process's peak
// resident memory jump by up to twice between runs.
var refPerm, refTable = func() ([]int32, map[uint64]uint64) {
	const n = 1 << 18
	x := uint64(88172645463325252)
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	m := make(map[uint64]uint64, 4096)
	for k := range uint64(4096) {
		m[k] = k
	}
	return p, m
}()

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refPass runs one pass of the reference mix: the pointer chase, then
// updates to random keys of refTable. It is fixed and uses no code of the
// program, so a change to the program cannot move it.
func refPass() {
	p := int32(0)
	for range 400_000 {
		p = refPerm[p]
	}
	x := uint64(p) | 1
	for range 20_000 {
		x = xorshift(x)
		refTable[x%4096] += x >> 32
	}
}

// refRate runs the reference mix after a round and returns its timed
// passes per CPU second: how fast the host is right after the round.
func refRate() (float64, error) {
	runtime.GC() // no collection of the round's garbage may run meanwhile
	for range refWarmPasses {
		refPass()
	}
	c0, err := processCPU()
	if err != nil {
		return 0, err
	}
	for range refTimedPasses {
		refPass()
	}
	c1, err := processCPU()
	if err != nil {
		return 0, err
	}
	return refTimedPasses / (c1 - c0).Seconds(), nil
}
