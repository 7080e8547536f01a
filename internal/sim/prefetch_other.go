//go:build !amd64

package sim

import (
	"math"
	"unsafe"
)

// prefetchDefaultMin is prefetchMinBytes's value: without a prefetch
// instruction the lookahead stays off unless a test forces it on.
const prefetchDefaultMin = math.MaxInt

// prefetch is a no-op stub: only amd64 has the assembly body.
func prefetch(unsafe.Pointer) {}
