package checkedverify

import "testing"

// TestDrop drops a verification error inside a test function: a test
// that discards the error asserts nothing, so test files are in scope.
func TestDrop(t *testing.T) {
	_ = verifyConflicts(result{}) // want `error from verifyConflicts discarded with blank identifier`
}
