package main

import "unsafe"

// cpuidLeaf7EBX returns EBX of CPUID leaf 7, sub-leaf 0; bit 23 says the
// processor has CLFLUSHOPT. (CLFLUSH, which every amd64 has, is ordered
// against itself and takes 250 ms for 128 MB where CLFLUSHOPT takes 6.)
func cpuidLeaf7EBX() uint32

// clflushopt writes back and invalidates, in every cache level of every
// core, each 64-byte line of the n bytes at p.
func clflushopt(p unsafe.Pointer, n uintptr)

var canFlush = cpuidLeaf7EBX()&(1<<23) != 0

// flushFromCaches leaves data in DRAM only.
func flushFromCaches(data []float32) {
	if len(data) > 0 {
		clflushopt(unsafe.Pointer(&data[0]), uintptr(len(data))*4)
	}
}
