package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files from current output")

func TestRunReassemblesAndFilters(t *testing.T) {
	// A benchmark result line split across events, the way test2json frames
	// it (name fragment ends in a tab, measurements follow separately),
	// interleaved with a second package.
	in := strings.Join([]string{
		`{"Action":"start","Package":"topoctl"}`,
		`{"Action":"output","Package":"topoctl","Output":"goos: linux\n"}`,
		`{"Action":"output","Package":"topoctl","Output":"goarch: amd64\n"}`,
		`{"Action":"output","Package":"topoctl","Output":"pkg: topoctl\n"}`,
		`{"Action":"output","Package":"topoctl","Output":"cpu: Intel(R) Xeon(R)\n"}`,
		`{"Action":"output","Package":"topoctl","Output":"BenchmarkSeqGreedy/n=128\n"}`,
		`{"Action":"output","Package":"topoctl","Output":"BenchmarkSeqGreedy/n=128 \t"}`,
		`{"Action":"output","Package":"topoctl/internal/service","Output":"pkg: topoctl/internal/service\n"}`,
		`{"Action":"output","Package":"topoctl","Output":"      10\t    472631 ns/op\t   48421 B/op\t     373 allocs/op\n"}`,
		`{"Action":"output","Package":"topoctl","Output":"PASS\n"}`,
		`{"Action":"output","Package":"topoctl","Output":"ok  \ttopoctl\t0.405s\n"}`,
		`not json at all`,
		`{"Action":"pass","Package":"topoctl"}`,
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	want := "goos: linux\ngoarch: amd64\npkg: topoctl\ncpu: Intel(R) Xeon(R)\nBenchmarkSeqGreedy/n=128\nBenchmarkSeqGreedy/n=128 \t      10\t    472631 ns/op\t   48421 B/op\t     373 allocs/op\npkg: topoctl/internal/service\n"
	if got != want {
		t.Fatalf("filtered output:\n%q\nwant:\n%q", got, want)
	}
	if strings.Contains(got, "PASS") || strings.Contains(got, "ok  ") {
		t.Fatal("trailer lines leaked through")
	}
}

// TestGolden pins the full conversion of a realistic `go test -json`
// stream — split result lines, two interleaved packages, non-JSON noise,
// --- BENCH log blocks — against a committed golden file. Regenerate with
// `go test ./cmd/benchtxt -update` after an intentional format change.
func TestGolden(t *testing.T) {
	in, err := os.Open(filepath.Join("testdata", "sample.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var out strings.Builder
	if err := run(in, &out); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(golden) {
		t.Fatalf("output drifted from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s",
			goldenPath, out.String(), golden)
	}
}

// TestCommittedBaselineConverts feeds the repo's own BENCH_baseline.json —
// the exact input of CI's bench-delta step — through run and asserts the
// conversion yields something benchstat can chew on: machine/package
// headers plus a result line for every benchmark family the `bench`
// Makefile target tracks. A baseline refresh that drops a family, or a
// filter change that eats result lines, fails here instead of silently
// producing an empty benchstat table in CI.
func TestCommittedBaselineConverts(t *testing.T) {
	in, err := os.Open(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var out strings.Builder
	if err := run(in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"goos: ", "goarch: ", "pkg: topoctl\n", "cpu: "} {
		if !strings.Contains(got, want) {
			t.Errorf("converted baseline lacks header %q", want)
		}
	}
	families := []string{
		"BenchmarkSeqGreedy", "BenchmarkStretchVerification", "BenchmarkCoreBuild", "BenchmarkDistBuild",
		"BenchmarkUBGBuild", "BenchmarkChurn", "BenchmarkService",
		"BenchmarkRouteUncached", "BenchmarkRouteLabel", "BenchmarkLabelBuild",
	}
	for _, fam := range families {
		found := false
		for _, line := range strings.Split(got, "\n") {
			if strings.HasPrefix(line, fam) && strings.Contains(line, "ns/op") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s result line survived conversion", fam)
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		ok := false
		for _, p := range keepPrefixes {
			if strings.HasPrefix(line, p) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("line escaped the prefix filter: %q", line)
		}
	}
}
