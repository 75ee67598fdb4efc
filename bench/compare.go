package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// hostInfo identifies where and on what a result file was measured. Two
// files are only compared when every field but Commit agrees.
type hostInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
}

// resultFile is what -out accumulates: the host and every run made into it.
type resultFile struct {
	Env  hostInfo  `json:"env"`
	Runs []*result `json:"runs"`
}

func currentHost(e *env, c runCfg) hostInfo {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostInfo{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, Seed: c.seed, Seconds: c.seconds, Quick: c.quick,
	}
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendRun adds r to the result file at path, creating it if need be. A
// file begun under another host, seed or run length is refused: its runs
// would not be repetitions of this one.
func appendRun(path string, e *env, c runCfg, r *result) error {
	host := currentHost(e, c)
	f, err := readResults(path)
	switch {
	case os.IsNotExist(err):
		f = &resultFile{Env: host}
	case err != nil:
		return err
	case f.Env != host:
		return fmt.Errorf("%s was measured under %+v, this run is %+v: use another file", path, f.Env, host)
	}
	f.Runs = append(f.Runs, r)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// verdict judges one end-to-end metric of one workload: a and b are its
// values over the runs in the two files, spreadA/B the run-to-run spread
// of each side as a share of its median.
func verdict(m metricSpec, a, b []float64, spreadA, spreadB float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return worse, "regressed"
	}
	if max(spreadA, spreadB) > m.Bound && !allBetter(m, a, b) {
		return worse, "unresolved"
	}
	return worse, "ok"
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(m metricSpec, a, b []float64) bool {
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	if m.Better == "higher" {
		return loB > hiA
	}
	return hiB < loA
}

// runCompare applies the bounds committed in BENCHMARK.json to two result
// files. Exit status: 0 no regression, 1 at least one, 2 not comparable.
func runCompare(sp *spec, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ha, hb := a.Env, b.Env
	fmt.Printf("A %s: commit %s, %d runs\nB %s: commit %s, %d runs\n", pathA, ha.Commit, len(a.Runs), pathB, hb.Commit, len(b.Runs))
	ha.Commit, hb.Commit = "", ""
	if ha != hb {
		fmt.Printf("not comparable: A was measured under %+v, B under %+v\n", a.Env, b.Env)
		return 2
	}
	collect := func(f *resultFile, wl, metric string) (vals []float64) {
		for _, r := range f.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == wl {
				vals = append(vals, v.Value)
			}
		}
		return vals
	}
	regressed := false
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tworse by\tbound\tspread A\tspread B\tverdict\t")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := collect(a, wl.Name, m.Name), collect(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			// The run-to-run spread of a side needs runs to spread over: a
			// file with one run per workload reads 0 and cannot come out
			// "unresolved".
			sa, sb := quartileSpread(va), quartileSpread(vb)
			worse, v := verdict(m, va, vb, sa, sb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
				wl.Name, m.Name, median(va), median(vb), m.Unit, 100*worse, 100*m.Bound, 100*sa, 100*sb, v)
		}
		fa, ta, fb, tb := 0, 0, 0, 0
		for _, r := range a.Runs {
			if r.Workload == wl.Name {
				fa, ta = fa+r.Failed, ta+r.Attempted
			}
		}
		for _, r := range b.Runs {
			if r.Workload == wl.Name {
				fb, tb = fb+r.Failed, tb+r.Attempted
			}
		}
		if ta > 0 && tb > 0 {
			v := "ok"
			// fail_share may not grow by more than 0.001 absolute.
			if float64(fb)/float64(tb) > float64(fa)/float64(ta)+0.001 {
				v, regressed = "regressed", true
			}
			fmt.Fprintf(tw, "%s\tfail_share\t%d/%d\t%d/%d\tratio\t\t\t\t\t%s\t\n", wl.Name, fa, ta, fb, tb, v)
		}
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}
