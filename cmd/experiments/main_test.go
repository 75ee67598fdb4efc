package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentsCLI compiles the harness and checks -list plus one quick
// table run.
func TestExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "T1-stretch") || !strings.Contains(string(out), "F5-doubling") {
		t.Fatalf("-list incomplete:\n%s", out)
	}

	out, err = exec.Command(bin, "-quick", "-only", "T2-degree").CombinedOutput()
	if err != nil {
		t.Fatalf("quick run: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "T2-degree") || !strings.Contains(s, "worst spanner maxdeg") {
		t.Fatalf("table missing:\n%s", s)
	}
	if strings.Contains(s, "T1-stretch") {
		t.Fatal("-only filter leaked other tables")
	}

	// An ID that is not an experiment is an error naming the valid ones,
	// not an empty success after running the whole suite.
	out, err = exec.Command(bin, "-quick", "-only", "T2-degree,F5").CombinedOutput()
	if err == nil {
		t.Fatalf("-only with an unknown ID exited 0:\n%s", out)
	}
	if s := string(out); !strings.Contains(s, `unknown experiment "F5"`) || !strings.Contains(s, "F5-doubling") || strings.Contains(s, "worst spanner maxdeg") {
		t.Fatalf("unknown-ID error should list the valid IDs and run nothing:\n%s", s)
	}

	// Churn scenario runner: reproducible under a fixed seed, zero
	// invariant violations.
	churnArgs := []string{"-churn", "-churn-n", "40", "-churn-ops", "30", "-churn-check", "10", "-seed", "3"}
	out, err = exec.Command(bin, churnArgs...).CombinedOutput()
	if err != nil {
		t.Fatalf("churn run: %v\n%s", err, out)
	}
	s = string(out)
	if !strings.Contains(s, "churn scenario") || !strings.Contains(s, "0 violations") {
		t.Fatalf("churn output missing expected lines:\n%s", s)
	}
	out2, err := exec.Command(bin, churnArgs...).CombinedOutput()
	if err != nil {
		t.Fatalf("churn rerun: %v\n%s", err, out2)
	}
	stripTimes := func(s string) string {
		// The repair-timing line is wall-clock and may differ between runs.
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.Contains(line, "repair") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if stripTimes(string(out)) != stripTimes(string(out2)) {
		t.Fatalf("churn runner not reproducible under fixed seed:\n%s\nvs\n%s", out, out2)
	}
}
