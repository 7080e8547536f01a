// Package root stands in for the module-root package, which the
// analyzer checks like the packages under internal/.
package root

// Dead is referenced nowhere.
func Dead() int { return 1 } // want `deadexport: exported function Dead is referenced by no non-test file`

// Used is called by run.
func Used() int { return 2 }

func run() int { return Used() }

var _ = run
