// Package testonly is an analyzer fixture: package-level declarations
// that only tests use (flagged) next to ones a non-test file uses
// (clean).
package testonly

import "fmt"

// DeadExported is named by nothing at all.
func DeadExported() int { return 1 } // want testonly

// OnlyTestsCall is named only by testonly_test.go.
func OnlyTestsCall(x int) int { return 2 * x } // want testonly

// deadHelper is an unexported helper nothing calls; recursion inside
// its own declaration is not a use.
func deadHelper(n int) int { // want testonly
	if n == 0 {
		return 0
	}
	return deadHelper(n - 1)
}

// Limit is a constant only the tests read.
const Limit = 8 // want testonly

// Gauge is named only by its own method's receiver, which is not a
// use of the type.
type Gauge struct{ v int } // want testonly

// Reading is called only by testonly_test.go.
func (g *Gauge) Reading() int { return g.v } // want testonly

// Status is used by sibling.go.
type Status struct{ code int }

// Error satisfies the error interface, which fmt and errors call by
// name: exempt although nothing here names it.
func (s Status) Error() string { return fmt.Sprintf("status %d", s.code) }

// UsedBySibling is called from sibling.go, a non-test file.
func UsedBySibling() Status { return Status{code: 3} }

// Oracle stays for a documented reason.
//
//osclint:ignore testonly the fixture's suppressed finding: the packages whose tests share it
func Oracle() int { return 4 }
