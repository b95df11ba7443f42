// Command clear-export generates the synthetic WEMAC-like corpus and
// writes it to disk as CSV for analysis with external tooling: the
// extracted 123-feature maps, or one trial's raw signals.
//
// Usage:
//
//	clear-export -csv features.csv                    # feature-map CSV
//	clear-export -trial trial.csv -user 3 -index 2    # one trial's signals
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/features"
	"repro/internal/wemac"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "generation seed")
		scale   = flag.Float64("scale", 1.0, "population scale factor")
		csv     = flag.String("csv", "", "write extracted feature maps as CSV to this path")
		trial   = flag.String("trial", "", "write one trial's raw signals as CSV to this path")
		user    = flag.Int("user", 0, "volunteer ID for -trial")
		index   = flag.Int("index", 0, "trial index for -trial")
		windows = flag.Int("windows", 8, "feature-map windows for -csv")
	)
	flag.Parse()
	if *csv == "" && *trial == "" {
		fmt.Fprintln(os.Stderr, "clear-export: nothing to do; pass -csv or -trial")
		flag.Usage()
		os.Exit(2)
	}

	dcfg := wemac.DefaultConfig()
	dcfg.Seed = *seed
	if *scale != 1.0 {
		for i, s := range dcfg.ArchetypeSizes {
			n := int(float64(s)**scale + 0.5)
			if n < 1 {
				n = 1
			}
			dcfg.ArchetypeSizes[i] = n
		}
	}
	fmt.Printf("generating population %v (seed %d)...\n", dcfg.ArchetypeSizes, *seed)
	ds := wemac.Generate(dcfg)

	if *csv != "" {
		users, err := wemac.ExtractAll(ds, features.ExtractorConfig{WindowSec: 8, Windows: *windows})
		die(err)
		f, err := os.Create(*csv)
		die(err)
		die(wemac.WriteFeatureCSV(f, users))
		die(f.Close())
		fmt.Printf("wrote feature CSV: %s (%d maps × %d features × %d windows)\n",
			*csv, wemac.TotalMaps(users), features.TotalFeatureCount, *windows)
	}

	if *trial != "" {
		if *user < 0 || *user >= ds.N() {
			die(fmt.Errorf("user %d out of range [0,%d)", *user, ds.N()))
		}
		v := ds.Volunteers[*user]
		if *index < 0 || *index >= len(v.Trials) {
			die(fmt.Errorf("trial %d out of range [0,%d)", *index, len(v.Trials)))
		}
		f, err := os.Create(*trial)
		die(err)
		die(wemac.WriteTrialCSV(f, &v.Trials[*index]))
		die(f.Close())
		fmt.Printf("wrote trial CSV: %s (volunteer %d, trial %d, label %v)\n",
			*trial, *user, *index, v.Trials[*index].Label)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "clear-export:", err)
		os.Exit(1)
	}
}
