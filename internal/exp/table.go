// Package exp implements the experiment suite: one regenerable table per
// theorem/figure of the paper. Each experiment returns a Table that
// cmd/experiments renders and bench_test.go wraps one benchmark around
// each.
package exp

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "T1-stretch").
	ID string
	// Title describes what the table shows and which paper claim it checks.
	Title string
	// Header labels the columns.
	Header []string
	// Rows hold the measurements, one formatted cell per column.
	Rows [][]string
	// Notes are appended caveats (substitutions, bands, interpretation).
	Notes []string
}

// AddRow appends a row of values formatted with %v-ish defaults: floats get
// 4 significant digits, everything else fmt.Sprint.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table as aligned plain text with a title line.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// Config scales the experiment suite.
type Config struct {
	// Quick shrinks instance sizes for fast benchmark iterations; the full
	// configuration is what cmd/experiments runs without -quick.
	Quick bool
	// Seed offsets all instance seeds (default 0 = the recorded tables).
	Seed int64
}

// reps returns the number of independent instances aggregated per table
// cell in the scaling experiments.
func (c Config) reps() int {
	if c.Quick {
		return 1
	}
	return 3
}

// sizes returns the instance-size ladder for scaling experiments.
func (c Config) sizes() []int {
	if c.Quick {
		return []int{48, 96}
	}
	return []int{64, 128, 256, 512}
}

// distSizes returns the (smaller) ladder for distributed-round experiments.
func (c Config) distSizes() []int {
	if c.Quick {
		return []int{32, 64}
	}
	return []int{32, 64, 128, 256}
}

func (c Config) baseN() int {
	if c.Quick {
		return 96
	}
	return 256
}
