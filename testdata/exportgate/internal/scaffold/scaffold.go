// Package scaffold is imported only from a test, so its exports are exempt.
package scaffold

// One has no production caller.
func One() int { return 1 }
