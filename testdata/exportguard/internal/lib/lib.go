// Package lib holds one of each case the internal-export check tells apart.
package lib

// Used has a non-test caller, so the check passes it; the fixture's
// allowlist names it anyway, so the check reports that entry as stale.
func Used() int { return 1 }

// OnlyTested is called only from lib_test.go, so the check flags it.
func OnlyTested() int { return 2 }

// Hook is called only from lib_test.go, but the fixture's allowlist names it.
func Hook() {}

// T is used by main.
type T struct{}

// OnlyTestedMethod is called only from lib_test.go, so the check flags it.
func (T) OnlyTestedMethod() int { return 3 }

// String has no caller that names it, but T implements fmt.Stringer, so the
// check passes it.
func (T) String() string { return "T" }
