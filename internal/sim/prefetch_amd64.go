package sim

import "unsafe"

// prefetchDefaultMin is prefetchMinBytes's value: on amd64 the
// lookahead gate is prefetchGateBytes.
const prefetchDefaultMin = prefetchGateBytes

// prefetch asks the CPU to pull the cache line holding p into every
// cache level (PREFETCHT0) and returns at once. It is a hint: it never
// faults, never stalls on the line, and changes no value the program
// can read. Assembly because Go has no prefetch intrinsic, and a plain
// load in its place stalls the loop on the very miss it was meant to
// hide.
//
//go:noescape
func prefetch(p unsafe.Pointer)
