// Package deadexport plants exported code that nothing but a test
// would call, next to the forms the analyzer must leave alone.
package deadexport

import "fmt"

// Unused is referenced nowhere.
func Unused() int { return 1 } // want `deadexport: exported function Unused is referenced by no non-test file`

// Helper is used by run, in its own package.
func Helper() int { return 2 }

// Map is generic and used only through an instantiation.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Kept is deliberate API that only another package's tests call.
//
//popcheck:ignore deadexport kept for a planted external test
func Kept() int { return 3 }

// Runner is a module interface; its method name keeps Run alive.
type Runner interface{ Run() int }

// Box has methods of every kind.
type Box[T any] struct{ v T }

// Run is named in Runner.
func (b *Box[T]) Run() int { return 4 }

// String satisfies fmt.Stringer.
func (b *Box[T]) String() string { return fmt.Sprint(b.v) }

// Get is used only through the instantiation Box[int].
func (b *Box[T]) Get() T { return b.v }

// Drop is referenced nowhere and named in no interface.
func (b *Box[T]) Drop() {} // want `deadexport: exported method Drop is referenced by no non-test file`

func run() int {
	b := &Box[int]{v: Helper()}
	return len(Map([]int{b.Get()}, func(x int) int { return x }))
}

var _ = run
