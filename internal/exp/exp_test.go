package exp

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

var quick = Config{Quick: true}

// TestAllExperimentsRunQuick executes the entire suite in quick mode, twice:
// every experiment must produce a non-empty, well-formed table, and the
// second run must render every table byte-for-byte like the first (a table
// that depends on map iteration order or scheduling fails here).
func TestAllExperimentsRunQuick(t *testing.T) {
	tables, err := All(quick)
	if err != nil {
		t.Fatal(err)
	}
	again, err := All(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Names()) || len(again) != len(tables) {
		t.Fatalf("got %d tables, want %d", len(tables), len(Names()))
	}
	for i, tb := range tables {
		if tb.ID != Names()[i] {
			t.Errorf("table %d ID %q, want %q", i, tb.ID, Names()[i])
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s: row width %d != header %d", tb.ID, len(row), len(tb.Header))
			}
		}
		if !strings.Contains(tb.Render(), tb.ID) {
			t.Errorf("%s: render missing ID", tb.ID)
		}
		if a, b := tb.Render(), again[i].Render(); a != b {
			t.Errorf("%s differs between two runs at the same seed:\n%s\nvs\n%s", tb.ID, a, b)
		}
	}
}

// TestAllSelectsByID: All runs exactly the named experiments, in suite
// order, and rejects an unknown ID before running anything.
func TestAllSelectsByID(t *testing.T) {
	tables, err := All(quick, "F4-leapfrog", "F1-czumaj-zhao")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "F1-czumaj-zhao" || tables[1].ID != "F4-leapfrog" {
		t.Errorf("selected run returned %d tables: %v", len(tables), tables)
	}
	_, err = All(quick, "F1-czumaj-zhao", "F5")
	if err == nil || !strings.Contains(err.Error(), `"F5"`) || !strings.Contains(err.Error(), "F5-doubling") {
		t.Errorf("unknown ID: err = %v, want it to name \"F5\" and list the valid IDs", err)
	}
}

// column returns the parsed float values of a named column.
func column(t *testing.T, tb *Table, name string) []float64 {
	t.Helper()
	idx := -1
	for i, h := range tb.Header {
		if h == name {
			idx = i
			break
		}
	}
	if idx == -1 {
		t.Fatalf("%s: no column %q in %v", tb.ID, name, tb.Header)
	}
	var out []float64
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[idx], 64)
		if err != nil {
			if row[idx] == "inf" {
				v = math.Inf(1)
			} else {
				t.Fatalf("%s: cell %q not a number", tb.ID, row[idx])
			}
		}
		out = append(out, v)
	}
	return out
}

// TestT1MarginsNonNegative: the stretch guarantee must hold in the recorded
// table itself.
func TestT1MarginsNonNegative(t *testing.T) {
	tb, err := T1Stretch(quick)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range column(t, tb, "min margin") {
		if m < -1e-9 {
			t.Errorf("row %d: negative margin %v", i, m)
		}
	}
}

// TestT9FaultTableShape: k >= 1 rows must be violation-free.
func TestT9FaultTableShape(t *testing.T) {
	tb, err := T9Fault(quick)
	if err != nil {
		t.Fatal(err)
	}
	ks := column(t, tb, "k")
	vs := column(t, tb, "violations")
	for i := range ks {
		if ks[i] >= 1 && vs[i] > 0 {
			t.Errorf("row %d: k=%v had %v violations", i, ks[i], vs[i])
		}
	}
}

// TestF1NoViolations: the geometric lemma must hold exactly.
func TestF1NoViolations(t *testing.T) {
	tb, err := F1CzumajZhao(quick)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range column(t, tb, "violations") {
		if v != 0 {
			t.Errorf("row %d: %v Czumaj–Zhao violations", i, v)
		}
	}
	for i, tested := range column(t, tb, "triples") {
		if tested < 100 {
			t.Errorf("row %d: only %v triples tested", i, tested)
		}
	}
}

// TestF2ClusterGraphBounds: Lemma 5 must hold exactly; the Lemma 7
// distortion must stay in a constant band (the stated (1+6δ)/(1−2δ) factor
// is optimistic on discrete sparse spanners at small δ — see the table
// note — but O(1) is what the algorithm's guarantees need).
func TestF2ClusterGraphBounds(t *testing.T) {
	tb, err := F2ClusterGraph(quick)
	if err != nil {
		t.Fatal(err)
	}
	dist := column(t, tb, "max distortion")
	bound := column(t, tb, "Lemma 7 bound")
	for i := range dist {
		if dist[i] < 1-1e-9 {
			t.Errorf("row %d: distortion %v < 1 (H shorter than G')", i, dist[i])
		}
		if dist[i] > 2*bound[i]+2 {
			t.Errorf("row %d: distortion %v outside the constant band (Lemma 7 bound %v)", i, dist[i], bound[i])
		}
	}
	for i, r := range column(t, tb, "max inter w / (2δ+1)W") {
		if r > 1+1e-9 {
			t.Errorf("row %d: Lemma 5 ratio %v > 1", i, r)
		}
	}
}

// TestF4NoLeapfrogViolations on the real output.
func TestF4NoLeapfrogViolations(t *testing.T) {
	tb, err := F4Leapfrog(quick)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range column(t, tb, "violations") {
		if v != 0 {
			t.Errorf("row %d: %v leapfrog violations", i, v)
		}
	}
}

// TestTableRenderAlignment: rendered rows line up.
func TestTableRenderAlignment(t *testing.T) {
	tb := &Table{ID: "X", Title: "test", Header: []string{"a", "bbbb"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("xx", "y")
	out := tb.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, blank, header, rule, 2 rows.
	if len(lines) != 6 {
		t.Fatalf("render lines = %d: %q", len(lines), out)
	}
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("header and rule lengths differ: %q vs %q", lines[2], lines[3])
	}
}

func TestLogStar(t *testing.T) {
	if logStar(2) != 1 || logStar(4) != 2 || logStar(16) != 3 || logStar(65536) != 4 {
		t.Errorf("logStar wrong: %v %v %v %v", logStar(2), logStar(4), logStar(16), logStar(65536))
	}
}
