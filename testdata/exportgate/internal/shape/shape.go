// Package shape is the audited package of the export gates' fixture: one
// export is planted with no production caller and one knob with no
// production setter; every other export and knob is used from production
// code or exempt.
package shape

import "fmt"

// Shape is the fixture's own interface.
type Shape interface {
	Area() float64
}

// Square is an exported type whose methods are all exempt.
type Square struct{ Side float64 }

// Area satisfies Shape; nothing calls it on a Square directly.
func (s Square) Area() float64 { return s.Side * s.Side }

// String satisfies fmt.Stringer and has no caller.
func (s Square) String() string { return fmt.Sprintf("square(%v)", s.Side) }

// Unit is called by cmd/app.
func Unit() Shape { return Square{Side: 1} }

// Measure is called only by the second module, bench.
func Measure(s Shape) float64 { return s.Area() }

// Planted is called only by a test: the one export the gate must report.
func Planted() int { return 1 }

// Options holds the fixture's knobs.
type Options struct {
	// Planted is set only by a test and by its own package: the one knob
	// the gate must report.
	Planted int
	// Bench is set only by the second module, bench.
	Bench int
	// Assigned is set by an assignment in cmd/app.
	Assigned int
}

// defaults writes Planted from inside its own package, which does not count.
var defaults = Options{Planted: 2}
