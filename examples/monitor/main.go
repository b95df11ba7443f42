// Monitor: continuous on-device fear monitoring — the paper's motivating
// deployment (a wearable that detects fear episodes in real time).
//
// Trains a CLEAR pipeline, deploys a newcomer's assigned checkpoint to the
// simulated Coral TPU, then streams a day-in-the-life sequence of signal
// horizons through the edge.Monitor (calm → fear episode → recovery) and
// prints the smoothed fear probability, the alarm transitions, and the
// daily energy budget of this duty cycle.
//
// Run with: go run ./examples/monitor [-obs addr]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/wemac"
)

func main() {
	obsAddr := flag.String("obs", "", "serve /metrics, /debug/metrics, /debug/pprof, /debug/spans on this address (e.g. :9090)")
	flag.Parse()
	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("observability server on http://%s\n", addr)
	}
	ds := wemac.Generate(wemac.Config{
		ArchetypeSizes:     []int{5, 4, 3, 3},
		TrialsPerVolunteer: 10,
		TrialSec:           45,
		Seed:               23,
	})
	ecfg := features.ExtractorConfig{WindowSec: 8, Windows: 4}
	users, err := wemac.ExtractAll(ds, ecfg)
	if err != nil {
		log.Fatal(err)
	}
	newcomer := users[len(users)-1]
	known := users[:len(users)-1]

	cfg := core.DefaultConfig()
	cfg.Extractor = ecfg
	cfg.Seed = 23
	fmt.Printf("training CLEAR on %d users...\n", len(known))
	p, err := core.Train(known, cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := p.Assign(newcomer, 0.10)
	dep := edge.Deploy(p.ModelFor(a.Cluster), edge.CoralTPU())
	mon := edge.NewMonitor(dep, p, ecfg)
	fmt.Printf("newcomer assigned to cluster %d; monitoring on %s\n\n", a.Cluster, dep.Device.Name)

	// Day-in-the-life stream: calm, a fear episode, recovery. The
	// generator's own trials provide realistic physiology for each phase.
	vol := ds.Volunteers[len(ds.Volunteers)-1]
	var calm, fear []*features.Recording
	for _, tr := range vol.Trials {
		if tr.Label == wemac.Fear {
			fear = append(fear, tr.Rec)
		} else {
			calm = append(calm, tr.Rec)
		}
	}
	phases := []struct {
		name string
		recs []*features.Recording
	}{
		{"calm", calm[:3]},
		{"fear episode", fear[:4]},
		{"recovery", calm[3:]},
	}
	fmt.Printf("%-14s %8s %8s %8s\n", "phase", "raw", "smooth", "alarm")
	for _, ph := range phases {
		for _, rec := range ph.recs {
			ev, err := mon.Process(rec)
			if err != nil {
				log.Fatal(err)
			}
			mark := ""
			if ev.Changed {
				mark = "  ← transition"
			}
			fmt.Printf("%-14s %8.2f %8.2f %8v%s\n", ph.name, ev.RawProb, ev.SmoothProb, ev.Alarm, mark)
		}
	}

	// Per-horizon telemetry the monitor fed into the obs registry while
	// streaming — the MTC-style view of this deployment (README
	// "Observability" maps these to the paper's Table 2 metrics).
	lat := obs.GetHistogramVec("edge.monitor.latency_us", nil, "device").With(dep.Device.Name)
	fmt.Printf("\nper-horizon inference latency (wall-clock): p50 %.0f µs  p95 %.0f µs  max %.0f µs over %d horizons\n",
		lat.Quantile(0.50), lat.Quantile(0.95), lat.Max(), lat.Count())
	fmt.Printf("alarm transitions: %d\n", obs.GetCounter("edge.monitor.alarm_transitions").Value())
	fmt.Printf("modelled on-device cost: %.1f ms/horizon, cumulative %.2f J on %s\n",
		obs.GetGauge("edge.monitor.device_infer_s").Value()*1000,
		obs.GetGauge("edge.monitor.energy_j").Value(), dep.Device.Name)

	fmt.Println("\ndaily energy budget of this duty cycle (one window per minute,")
	fmt.Println("one nightly re-personalisation, 2 Wh wearable battery):")
	for _, dev := range edge.Devices() {
		d := edge.Deploy(p.ModelFor(a.Cluster), dev)
		rep := d.EnergyBudget([]int{cfg.Model.InH, cfg.Model.InW}, edge.DefaultDutyCycle(), 2.0)
		fmt.Println("  " + strings.ReplaceAll(rep.String(), "\n", " "))
	}

	fmt.Println("\nOBSERVABILITY — span tree (wall-clock per stage)")
	fmt.Println(obs.SpanTree())
	fmt.Println("\nOBSERVABILITY — metrics snapshot")
	fmt.Println(obs.MetricsDump())
}
