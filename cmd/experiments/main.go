// Command experiments regenerates every experiment table of internal/exp:
// one table per theorem or figure of the paper it validates. It is
// also the churn scenario runner for the incremental maintenance engine
// (internal/dynamic).
//
// Usage:
//
//	experiments [-quick] [-only T1-stretch,...] [-seed N]
//	experiments -churn [-churn-n N] [-churn-ops N] [-churn-arrival R]
//	            [-churn-departure R] [-churn-mobility R] [-churn-batch K]
//	            [-churn-epsilon E] [-churn-check K] [-seed N]
//
// Output is plain text, one table per experiment; -churn prints the
// scenario result table instead. Identical flags (including -seed) reproduce identical
// churn streams and topologies.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"topoctl/internal/dynamic"
	"topoctl/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced instance sizes")
	only := flag.String("only", "", "comma-separated experiment IDs (default: all); see -list")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	seed := flag.Int64("seed", 0, "seed offset for all instances (0 = the recorded tables)")
	churn := flag.Bool("churn", false, "run the churn scenario instead of the experiment tables")
	churnN := flag.Int("churn-n", 200, "churn: initial node count")
	churnOps := flag.Int("churn-ops", 500, "churn: number of operations")
	churnArrival := flag.Float64("churn-arrival", 1, "churn: relative join rate")
	churnDeparture := flag.Float64("churn-departure", 1, "churn: relative leave rate")
	churnMobility := flag.Float64("churn-mobility", 2, "churn: relative move rate")
	churnBatch := flag.Int("churn-batch", 1, "churn: operations coalesced per repair pass")
	churnEps := flag.Float64("churn-epsilon", 0.5, "churn: stretch slack (target stretch 1+ε)")
	churnCheck := flag.Int("churn-check", 100, "churn: verify the stretch invariant every K ops (0 = end only)")
	flag.Parse()

	if *list {
		for _, n := range exp.Names() {
			fmt.Println(n)
		}
		return
	}

	if *churn {
		res, err := dynamic.RunScenario(dynamic.ScenarioConfig{
			N:             *churnN,
			Ops:           *churnOps,
			T:             1 + *churnEps,
			ArrivalRate:   *churnArrival,
			DepartureRate: *churnDeparture,
			MobilityRate:  *churnMobility,
			Batch:         *churnBatch,
			Seed:          *seed,
			CheckEvery:    *churnCheck,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res)
		if res.Violations > 0 {
			fmt.Fprintf(os.Stderr, "experiments: stretch invariant violated\n")
			os.Exit(1)
		}
		return
	}

	cfg := exp.Config{Quick: *quick, Seed: *seed}
	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	tables, err := exp.All(cfg, ids...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}
