// Package baddirective holds malformed suppression directives, which are
// findings themselves.
package baddirective

// Note has a directive without a reason: finding.
func Note() {
	//lint:ignore lockorder
	_ = 0
}

// Blank has a directive without even an analyzer name: finding.
func Blank() {
	//lint:ignore
	_ = 0
}

// Stale names an analyzer vitallint does not have, so it would suppress
// nothing: finding.
func Stale() {
	//lint:ignore goroutineleak the loop lives as long as the process
	_ = 0
}
