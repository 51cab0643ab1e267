package main

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"time"
)

// The reference kernel is the yardstick host time is divided by. The
// CPU speed of a shared VM drifts by tens of percent within minutes, so
// an iteration's raw wall time says as much about the neighbours as
// about the simulator. Bracketing every iteration with a fixed,
// stdlib-only kernel and dividing by it cancels most of that drift. The
// kernel mixes the kinds of work the simulator does: branchy sorting,
// streaming hashing and hashed access, plus allocating and walking
// pointer trees, which exercises the allocator, the GC and the memory
// system that contention slows most. The kernel is frozen: changing its
// work or its inputs changes every normalised number and is a benchmark
// change.
const (
	refSortInts   = 400_000
	refHashBytes  = 8 << 20
	refMapUpdates = 200_000
	refMapKeys    = 1 << 16
	refTrees      = 4
	refTreeDepth  = 17 // 2^18-1 nodes per tree
)

// refKernel holds the kernel's inputs, built once during set-up.
type refKernel struct {
	ints    []int
	scratch []int
	blob    []byte
	m       map[uint32]uint32
}

// splitmix64 is the kernel's input generator, spelled out here so that
// no library change can move the inputs.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newRefKernel() *refKernel {
	k := &refKernel{
		ints:    make([]int, refSortInts),
		scratch: make([]int, refSortInts),
		blob:    make([]byte, refHashBytes),
		m:       make(map[uint32]uint32, refMapKeys),
	}
	state := uint64(20171028) // fixed; never the workload seed
	for i := range k.ints {
		k.ints[i] = int(splitmix64(&state) >> 1)
	}
	for i := 0; i < len(k.blob); i += 8 {
		binary.LittleEndian.PutUint64(k.blob[i:], splitmix64(&state))
	}
	return k
}

// refNode is a node of the kernel's allocation trees.
type refNode struct {
	left, right *refNode
	v           int
}

func refTree(depth int) *refNode {
	if depth == 0 {
		return &refNode{v: 1}
	}
	return &refNode{left: refTree(depth - 1), right: refTree(depth - 1), v: depth}
}

func (n *refNode) sum() int {
	if n == nil {
		return 0
	}
	return n.v + n.left.sum() + n.right.sum()
}

// run executes the kernel once and returns its checksum, which depends
// only on the frozen inputs.
func (k *refKernel) run() uint64 {
	copy(k.scratch, k.ints)
	sort.Ints(k.scratch)
	var sum uint64
	for i := 0; i < len(k.scratch); i += 4096 {
		sum = sum*31 + uint64(k.scratch[i])
	}
	digest := sha256.Sum256(k.blob)
	sum ^= binary.LittleEndian.Uint64(digest[:])
	clear(k.m)
	x := uint32(1)
	for i := 0; i < refMapUpdates; i++ {
		x = x*1664525 + 1013904223
		k.m[x>>16] += x
	}
	sum ^= uint64(len(k.m)) ^ uint64(k.m[12345])
	for i := 0; i < refTrees; i++ {
		sum = sum*31 + uint64(refTree(refTreeDepth).sum())
	}
	return sum
}

// timed runs the kernel once and returns its host time in seconds.
func (k *refKernel) timed() float64 {
	start := time.Now()
	k.run()
	return time.Since(start).Seconds()
}
