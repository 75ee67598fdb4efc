// Command bench is topoctl's benchmark of record: four named workloads
// driven against a real `topoctld serve` child process over loopback HTTP
// (and against the library, for build-8k), reporting the end-to-end and
// per-layer metrics that BENCHMARK.json names. See README.md.
//
//	go run -C bench . -workload route-hot            # one workload, end to end
//	go run -C bench . -workload route-hot -trace 1   # its per-layer budget
//	go run -C bench . -out bench/out/a.json          # all four, appended to a result file
//	go run -C bench . -compare a.json b.json         # apply the committed bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"text/tabwriter"
)

// spec mirrors BENCHMARK.json, the one place metric names, units and
// regression bounds are written down; the harness reads it rather than
// repeating it.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" (empty: all four)")
		seed     = flag.Int64("seed", 1, "input seed: points, query sequences and op batches all derive from it")
		seconds  = flag.Float64("seconds", 0, "seconds one run measures (0: run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: traced in-process run printing the per-layer metrics; 0: end-to-end run against the child daemon")
		quick    = flag.Bool("quick", false, "smoke-test sizes: n=256, 1 s windows, 20 batches")
		out      = flag.String("out", "", "append the run(s) to this result file (for -compare)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		// The traced run re-executes the harness as its server process
		// (tracedserver.go); these are that process's arguments.
		server = flag.Bool("tracedserver", false, "internal: serve a traced stack for a -trace 1 run")
		points = flag.String("points", "", "internal: with -tracedserver, the deployment file")
		walDir = flag.String("wal", "", "internal: with -tracedserver, the WAL directory")
		spans  = flag.String("spans", "", "internal: with -tracedserver, where to write the spans")
	)
	flag.Parse()
	if *server {
		os.Exit(tracedServerMain(*points, *walDir, *spans))
	}
	os.Exit(run(*workload, runCfg{seed: *seed, seconds: *seconds, quick: *quick}, *trace == 1, *out, *compare, flag.Args()))
}

func run(workload string, c runCfg, trace bool, out string, compare bool, args []string) int {
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer e.cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		e.cleanup() // no orphaned topoctld, no stray WAL directories
		os.Exit(130)
	}()

	sp, err := loadSpec(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compare {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return runCompare(sp, args[0], args[1])
	}
	if c.seconds <= 0 {
		c.seconds = float64(sp.RunSeconds)
	}
	if c.quick {
		c.seconds = 3.5
	}
	todo := workloadNames
	if workload != "" {
		if !slices.Contains(workloadNames, workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", workload, workloadNames)
			return 2
		}
		todo = []string{workload}
	}

	ok := true
	var last []byte
	for _, name := range todo {
		want, r, err := names(sp.EndToEnd), (*result)(nil), error(nil)
		if trace {
			want = names(sp.PerLayer)
			r, err = traced(e, c, name)
		} else {
			r, err = endToEnd(e, c, name)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		line, complete := report(sp, r, want, trace)
		ok = ok && complete && r.Failed == 0
		last = line
		if out != "" {
			if err := appendRun(out, e, c, r); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	os.Stdout.Write(append(last, '\n'))
	if !ok {
		return 1
	}
	return 0
}

func endToEnd(e *env, c runCfg, name string) (*result, error) {
	switch name {
	case wlRouteHot:
		return routeHot(e, c)
	case wlRouteCold:
		return routeCold(e, c)
	case wlChurn:
		return churnDurable(e, c)
	default:
		return build8k(c)
	}
}

// report prints the workload's table and notes, and returns the contract's
// result line: the metrics named in BENCHMARK.json for this mode, each
// with its unit. A per-layer metric the workload never exercises reads 0
// (its layer did no work); an end-to-end metric that is missing makes the
// run incomplete.
func report(sp *spec, r *result, want []string, trace bool) (line []byte, complete bool) {
	units := map[string]string{}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		units[m.Name] = m.Unit
	}
	complete = true
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]lineMetric{}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s\tvalue\tunit\tmin\tmedian\tmax\t\t\n", r.Workload)
	for _, name := range want {
		v, have := r.Metrics[name]
		switch {
		case have && v.Unit != units[name]:
			fmt.Fprintf(os.Stderr, "bench: %s measured in %s but BENCHMARK.json says %s\n", name, v.Unit, units[name])
			complete = false
		case !have && !trace:
			fmt.Fprintf(os.Stderr, "bench: %s: end-to-end metric %s was not measured\n", r.Workload, name)
			complete = false
		}
		metrics[name] = lineMetric{v.Value, units[name]}
		tag := ""
		if !have {
			tag = "-"
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%.6g\t%s\t\n", name, v.Value, units[name], v.Min, v.Median, v.Max, tag)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(tw, "fail_share\t%.6g\tratio\t\t\t\t%d/%d\t\n", share, r.Failed, r.Attempted)
	tw.Flush()
	extra := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		if !slices.Contains(want, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  (also) %s = %.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, n := range r.Notes {
		fmt.Println("  note:", n)
	}
	for _, e := range r.Errors {
		fmt.Println("  FAILED:", e)
	}
	line, _ = json.Marshal(map[string]any{ // only numbers and strings: cannot fail
		"correct":   complete && r.Failed == 0,
		"attempted": max(r.Attempted, 1),
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	return line, complete
}
