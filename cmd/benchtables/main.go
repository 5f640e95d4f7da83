// Command benchtables regenerates every experiment table of EXPERIMENTS.md
// (the per-theorem/figure reproduction index E1–E10 of DESIGN.md).
//
// Usage:
//
//	benchtables [-quick] [-seed N] [-only E6] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"distmatch/internal/experiments"
	"distmatch/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sizes (seconds instead of minutes)")
	seed := flag.Uint64("seed", 1, "master seed")
	only := flag.String("only", "", "run a single experiment, e.g. E6")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	gens := map[string]func(experiments.Config) *stats.Table{
		"E1": experiments.E1Generic, "E2": experiments.E2Bipartite,
		"E3": experiments.E3Counting, "E4": experiments.E4General,
		"E5": experiments.E5Survival, "E6": experiments.E6Weighted,
		"E7": experiments.E7Quarter, "E8": experiments.E8Baselines,
		"E9": experiments.E9Switch, "E10": experiments.E10MessageBits,
		"E11": experiments.E11LocalSearch, "E12": experiments.E12Trees,
		"E13": experiments.E13Variance, "E14": experiments.E14Dynamic,
		"E15": experiments.E15Region,
	}
	var tables []*stats.Table
	if *only != "" {
		gen, ok := gens[strings.ToUpper(*only)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (E1..E15)\n", *only)
			os.Exit(2)
		}
		tables = append(tables, gen(cfg))
	} else {
		tables = experiments.All(cfg)
	}
	for _, t := range tables {
		if *csv {
			fmt.Println("# " + t.Title)
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
}
