// Command clear-repro regenerates the CLEAR paper's tables and this
// repository's ablations on the synthetic WEMAC-like population. Each
// experiment owns one committed results file, and that file is exactly the
// experiment's stdout:
//
//	clear-repro -only table1 > results_table1.txt
//
// Stdout carries results only, so it depends on nothing but the code, the
// seed, the scale and the profile. Banners, timings, progress, the span
// tree and the metrics dump go to stderr.
//
// Usage:
//
//	clear-repro [-only table1,table2,ksweep,ablate,rt] [-seed N] [-scale F]
//	            [-profile fast|paper] [-obs addr]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wemac"
)

// experiment is one results file: results_<name>.txt is the stdout of
// `clear-repro -only <name>`.
type experiment struct {
	name  string
	scale float64 // population scale unless -scale is given
	run   func(r *repro, p *population, w io.Writer) error
}

var experiments = []experiment{
	{"table1", 1.0, table1},
	{"table2", 1.0, table2},
	{"ksweep", 1.0, ksweep},
	{"ablate", 0.6, ablate},
	{"rt", 1.0, rt},
}

// The protocol's fixed budgets (paper §IV-B) and the RT harness settings.
const (
	caFrac     = 0.10 // unlabeled fraction for cold-start assignment
	ftFrac     = 0.20 // labelled fraction for fine-tuning
	kMin, kMax = 2, 8 // ksweep's K range
	rtCycles   = 4    // stream passes per RT arm
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	usage := func() {
		fmt.Fprintf(stderr, "usage: clear-repro [-only %s] [-seed N] [-scale F] [-profile fast|paper] [-obs addr]\n",
			strings.Join(names, ","))
	}
	fs := flag.NewFlagSet("clear-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(); fs.PrintDefaults() }
	only := fs.String("only", strings.Join(names, ","), "comma-separated experiments to run, in table order")
	seed := fs.Int64("seed", 1, "master seed for data and training")
	scale := fs.Float64("scale", 0, "population scale for every experiment (0: each experiment's default, 1.0 or 0.6 for ablate)")
	profile := fs.String("profile", "fast", "experiment profile: fast or paper")
	obsAddr := fs.String("obs", "", "serve /metrics, /debug/metrics, /debug/pprof, /debug/spans on this address (e.g. :9090)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []experiment
	for _, e := range experiments {
		if strings.Contains(","+*only+",", ","+e.name+",") {
			selected = append(selected, e)
		}
	}
	cfg, err := core.ProfileConfig(*profile, *seed)
	if len(selected) != len(strings.Split(*only, ",")) || *scale < 0 || err != nil {
		fmt.Fprintf(stderr, "clear-repro: bad -only %q, -scale %v or -profile %q\n", *only, *scale, *profile)
		usage()
		return 2
	}
	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintln(stderr, "clear-repro:", err)
			return 1
		}
		fmt.Fprintf(stderr, "observability server on http://%s (/metrics, /debug/pprof, /debug/spans)\n", addr)
	}

	r := &repro{cfg: cfg, log: stderr, pops: map[float64]*population{}}
	start := time.Now()
	code := 0
	for _, e := range selected {
		s := e.scale
		if *scale > 0 {
			s = *scale
		}
		sp := obs.StartSpan("repro." + e.name)
		p, err := r.population(s)
		if err == nil {
			err = e.run(r, p, stdout)
		}
		sp.End()
		if err != nil {
			fmt.Fprintf(stderr, "clear-repro: %s: %v\n", e.name, err)
			code = 1
			break
		}
	}
	fmt.Fprintf(stderr, "total runtime %v\n", time.Since(start).Round(time.Second))
	fmt.Fprintf(stderr, "\nOBSERVABILITY — span tree (wall-clock per stage)\n%s\n", obs.SpanTree())
	fmt.Fprintf(stderr, "\nOBSERVABILITY — metrics snapshot\n%s\n", obs.MetricsDump())
	return code
}

// repro holds what the experiments of one process share: the profile, and
// one population (with its CLEAR LOSO run) per scale.
type repro struct {
	cfg  core.Config
	log  io.Writer
	pops map[float64]*population
}

type population struct {
	users []*wemac.UserMaps
	loso  *eval.LOSORun // the CLEAR LOSO run, computed on first use
}

// population generates and extracts the scaled population once.
func (r *repro) population(scale float64) (*population, error) {
	if p, ok := r.pops[scale]; ok {
		return p, nil
	}
	dcfg := wemac.ScaledConfig(r.cfg.Seed, scale)
	start := time.Now()
	fmt.Fprintf(r.log, "generating synthetic WEMAC population (%v volunteers, %d trials each)...\n",
		dcfg.ArchetypeSizes, dcfg.TrialsPerVolunteer)
	users, err := wemac.ExtractAll(wemac.Generate(dcfg), r.cfg.Extractor)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.log, "extracted %d feature maps (%d features × %d windows) in %v\n",
		wemac.TotalMaps(users), features.TotalFeatureCount, r.cfg.Extractor.Windows,
		time.Since(start).Round(time.Millisecond))
	p := &population{users: users}
	r.pops[scale] = p
	return p, nil
}

// loso returns p's CLEAR LOSO run (recluster + retrain per held-out
// volunteer), which Table I's CLEAR rows and Table II share.
func (r *repro) loso(p *population) (*eval.LOSORun, error) {
	if p.loso != nil {
		return p.loso, nil
	}
	fmt.Fprintln(r.log, "running full CLEAR LOSO (recluster + retrain per held-out volunteer)...")
	var err error
	p.loso, err = eval.RunLOSO(p.users, r.cfg, caFrac, func(done, total int) {
		fmt.Fprintf(r.log, "      fold %d/%d\n", done, total)
	})
	return p.loso, err
}

// table1 is Table I: General model, CL validation with its RT row, the
// CLEAR rows, and the fine-tuning label-budget ablation (A3).
func table1(r *repro, p *population, w io.Writer) error {
	users, cfg := p.users, r.cfg
	// General model: group size = mean cluster size (11 in the paper).
	groupSize := max(len(users)/cfg.K, 2)
	fmt.Fprintf(r.log, "[1/3] General model (%d random users, intra-group LOSO)...\n", groupSize)
	gen, err := eval.RunGeneralModel(users, cfg, groupSize, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.log, "[2/3] CL validation (global clustering + intra-cluster LOSO + RT)...")
	cl, err := eval.RunCL(users, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "      cluster sizes: %v\n", cl.Sizes)
	for k, pc := range cl.PerCluster {
		if pc.Folds > 0 {
			fmt.Fprintf(w, "      cluster %d (%d users): %v\n", k+1, cl.Sizes[k], pc)
		}
	}
	fmt.Fprintln(r.log, "[3/3] CLEAR validation (full LOSO: recluster + retrain per held-out volunteer)...")
	run, err := r.loso(p)
	if err != nil {
		return err
	}
	clr, err := eval.EvaluateCLEAR(run, ftFrac)
	if err != nil {
		return err
	}

	row := func(name string, a eval.Agg, paper string) {
		fmt.Fprintf(w, "%-22s %10.2f %10.2f %10.2f %10.2f   [%s]\n", name, a.MeanAcc, a.StdAcc, a.MeanF1, a.StdF1, paper)
	}
	fmt.Fprintf(w, "\nTABLE I — WEMAC fear / non-fear (paper values in brackets)\n")
	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s\n", "Validation func", "Accuracy", "STD(Acc)", "F1-score", "STD(F1)")
	fmt.Fprintln(w, "--- previous works (quoted from the paper; not re-run) ---")
	row("Bindi [22]", eval.Agg{MeanAcc: 64.63, StdAcc: 16.56, MeanF1: 66.67, StdF1: 17.31}, "quoted")
	row("Sun et al. [18]", eval.Agg{MeanAcc: 79.90, StdAcc: 4.16, MeanF1: 78.13, StdF1: 6.52}, "quoted")
	fmt.Fprintln(w, "--- without clustering ---")
	row("General Model", gen, "75.00 / 72.57")
	fmt.Fprintln(w, "--- Clustering and Learning (CL) validation ---")
	row("RT CL", cl.RT, "64.33 / 62.42")
	row("CL validation", cl.CL, "81.90 / 80.41")
	fmt.Fprintln(w, "--- CLEAR validation ---")
	row("RT CLEAR", clr.RT, "72.68 / 70.98")
	row("CLEAR w/o FT", clr.WithoutFT, "80.63 / 79.97")
	row("CLEAR w FT", clr.WithFT, "86.34 / 86.03")
	fmt.Fprintf(w, "\ncold-start assignment matched the ground-truth archetype in %.0f%% of folds\n",
		clr.AssignmentAccuracy*100)

	fmt.Fprintln(w, "\nABLATION — fine-tuning label budget (reusing the LOSO pipelines)")
	fmt.Fprintf(w, "%-8s %10s %10s\n", "ft frac", "Accuracy", "F1")
	for _, frac := range []float64{0.05, 0.10, 0.20, 0.30, 0.50} {
		res, err := eval.EvaluateCLEAR(run, frac)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8.2f %10.2f %10.2f\n", frac, res.WithFT.MeanAcc, res.WithFT.MeanF1)
	}
	return nil
}

// table2 is Table II: every LOSO fold's assigned checkpoint deployed to
// the GPU baseline, the Coral Edge TPU (int8) and the Pi + NCS2 (fp16),
// before and after on-device fine-tuning, plus the time/power model.
func table2(r *repro, p *population, w io.Writer) error {
	run, err := r.loso(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.log, "deploying to edge platforms and fine-tuning on-device...")
	t2, err := eval.RunTable2(run, edge.Devices(), ftFrac)
	if err != nil {
		return err
	}
	paperUpper := map[string][2]float64{"GPU": {80.63, 79.97}, "Coral TPU": {74.17, 73.57}, "Pi + NCS2": {79.03, 78.48}}
	paperRT := map[string][2]float64{"Coral TPU": {65.32, 64.79}, "Pi + NCS2": {68.47, 69.02}}
	agg := func(name string, a eval.Agg, paper [2]float64) {
		fmt.Fprintf(w, "%-12s %10.2f %10.2f %10.2f %10.2f   [%.2f / %.2f]\n",
			name, a.MeanAcc, a.StdAcc, a.MeanF1, a.StdF1, paper[0], paper[1])
	}
	fmt.Fprintf(w, "\nTABLE II (upper) — deployment without fine-tuning (paper values in brackets)\n")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s\n", "Platform", "Accuracy", "STD(Acc)", "F1-score", "STD(F1)")
	for _, res := range t2.Results {
		agg(res.Device, res.NoFT, paperUpper[res.Device])
		if p, ok := paperRT[res.Device]; ok {
			agg("  RT CLEAR", res.RT, p)
		}
	}

	fmt.Fprintf(w, "\nTABLE II (lower) — after on-device fine-tuning + cost model\n")
	line := func(name string, v [3]float64, unit string) {
		fmt.Fprintf(w, "%-18s %12.2f %12.2f %12.2f %6s\n", name, v[0], v[1], v[2], unit)
	}
	row := func(name string, f func(d eval.DeviceResult) float64, unit string) {
		line(name, [3]float64{f(t2.Results[0]), f(t2.Results[1]), f(t2.Results[2])}, unit)
	}
	fmt.Fprintf(w, "%-18s %12s %12s %12s %6s\n", "", "GPU", "TPU", "Pi+NCS2", "unit")
	row("Accuracy", func(d eval.DeviceResult) float64 { return d.FT.MeanAcc }, "-")
	line("  (paper)", [3]float64{86.34, 79.40, 84.49}, "-")
	row("Accuracy std", func(d eval.DeviceResult) float64 { return d.FT.StdAcc }, "-")
	row("F1-score", func(d eval.DeviceResult) float64 { return d.FT.MeanF1 }, "-")
	line("  (paper)", [3]float64{86.03, 79.14, 84.07}, "-")
	row("F1 std", func(d eval.DeviceResult) float64 { return d.FT.StdF1 }, "-")
	row("MTC Re-training", func(d eval.DeviceResult) float64 { return d.Cost.RetrainS }, "s")
	row("MPC Re-training", func(d eval.DeviceResult) float64 { return d.Cost.MPCRetrainW }, "W")
	row("MTC Test", func(d eval.DeviceResult) float64 { return d.Cost.TestS * 1000 }, "ms")
	row("MPC Test", func(d eval.DeviceResult) float64 { return d.Cost.MPCTestW }, "W")
	row("MPC Baseline", func(d eval.DeviceResult) float64 { return d.Cost.MPCIdleW }, "W")
	fmt.Fprintf(w, "\npaper (lower block): FT acc 86.34/79.40/84.49; MTC retrain -/32.48/78.52 s;\n")
	fmt.Fprintf(w, "MTC test -/47.31/239.70 ms; MPC retrain -/1.82/3.78 W; test -/1.64/3.43 W; idle -/1.28/2.76 W\n")
	return nil
}

// ksweep is the paper's two design selections: K=4 clusters (A1, §IV-A)
// and the 10 % cold-start budget (A2, §IV-B), with the flat-assignment
// ablation beside the hierarchical rule.
func ksweep(r *repro, p *population, w io.Writer) error {
	users, cfg := p.users, r.cfg
	summaries := make([][]float64, len(users))
	for i, u := range users {
		summaries[i] = u.Summary(1.0)
	}
	zs := cluster.FitStandardizer(summaries).ApplyAll(summaries)
	sweep, err := cluster.SweepK(zs, kMin, kMax, cluster.Options{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nABLATION A1 — cluster count selection (paper: K=4, sizes 17/13/7/7)\n")
	fmt.Fprintf(w, "%-4s %12s %12s %10s %10s   %s\n", "K", "silhouette", "inertia", "DaviesB", "CalinskiH", "sizes")
	for _, p := range sweep {
		res, err := cluster.KMeans(zs, p.K, cluster.Options{Seed: cfg.Seed + int64(p.K)*101})
		if err != nil {
			return err
		}
		marker := ""
		if p.K == cluster.BestK(sweep) {
			marker = "  ← best silhouette"
		}
		fmt.Fprintf(w, "%-4d %12.4f %12.1f %10.3f %10.1f   %v%s\n", p.K, p.Silhouette, p.Inertia,
			cluster.DaviesBouldin(zs, res), cluster.CalinskiHarabasz(zs, res), p.Sizes, marker)
	}

	fmt.Fprintf(w, "\nABLATION A2 — cold-start assignment vs unlabeled data budget (paper: 10%%)\n")
	fmt.Fprintf(w, "%-8s %22s %22s\n", "frac", "hierarchical assign", "flat assign (ablation)")
	for _, frac := range []float64{0.05, 0.10, 0.20, 0.50, 1.00} {
		hier, flat, err := eval.ColdStartAccuracy(users, cfg, frac)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8.2f %21.0f%% %21.0f%%\n", frac, hier*100, flat*100)
	}
	return nil
}

// ablate is the design choices the paper motivates only in prose (A4, A5):
// the CNN-LSTM against its ablated architectures, and refined k-means
// against agglomerative clustering and a random partition, all under the
// CL-validation protocol.
func ablate(r *repro, p *population, w io.Writer) error {
	users, cfg := p.users, r.cfg
	fmt.Fprintln(w, "\nABLATION — classifier architecture (CL validation protocol)")
	archs, err := eval.RunArchAblation(users, cfg, []nn.Arch{nn.ArchCNNLSTM, nn.ArchCNNGRU, nn.ArchCNNOnly, nn.ArchLSTMOnly})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %10s %10s %10s %12s\n", "arch", "acc", "F1", "params", "MACs")
	for _, a := range archs {
		fmt.Fprintf(w, "%-10s %9.2f%% %9.2f%% %10d %12d\n", a.Arch, a.CL.MeanAcc, a.CL.MeanF1, a.Params, a.MACs)
	}

	fmt.Fprintln(w, "\nABLATION — global clustering algorithm (CL validation protocol)")
	res, err := eval.RunClusteringAblation(users, cfg, eval.ClusteringAlgorithms(cfg))
	if err != nil {
		return err
	}
	sort.SliceStable(res, func(i, j int) bool { return res[i].CL.MeanAcc > res[j].CL.MeanAcc })
	fmt.Fprintf(w, "%-14s %10s %10s %8s   %s\n", "algorithm", "CL acc", "RT acc", "purity", "sizes")
	for _, c := range res {
		fmt.Fprintf(w, "%-14s %9.2f%% %9.2f%% %7.0f%%   %v\n", c.Name, c.CL.MeanAcc, c.RT.MeanAcc, c.Purity*100, c.Sizes)
	}
	return nil
}

// rt is the paper's RT condition replayed online: held-out users streamed
// through the serving layer honestly assigned, forced onto the most
// distant cluster, and forced there with the self-healing detector on.
// It fails unless the wrong-cluster arm loses accuracy and the detector
// recovers at least half of the gap.
func rt(r *repro, p *population, w io.Writer) error {
	fmt.Fprintf(r.log, "training CLEAR pipeline on %d users...\n", len(p.users))
	pipe, err := core.Train(p.users, r.cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.log, "cluster sizes %v\n", pipe.ClusterSizes())

	hcfg := wemac.DefaultConfig()
	hcfg.Seed = r.cfg.Seed + 1
	hcfg.ArchetypeSizes = []int{2, 2, 2, 2} // 8 held-out users, 2 per archetype
	held, err := wemac.ExtractAll(wemac.Generate(hcfg), pipe.Cfg.Extractor)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.log, "streaming %d held-out users, %d cycles, 3 arms\n", len(held), rtCycles)
	// The detector the committed RT results use: a 6-window evidence
	// ring, gap threshold 0.05, 3 consecutive positives, 64-window cooldown.
	scfg := serve.Config{MaxDelay: 500 * time.Microsecond,
		DriftWindow: 6, DriftThreshold: 0.05, DriftConsecutive: 3, DriftCooldown: 64}
	res, err := eval.RunRT(pipe, held, rtCycles, scfg, func(done, total int) {
		fmt.Fprintf(r.log, "user %d/%d\n", done, total)
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, eval.FormatRT(res))
	if res.Correct <= res.Wrong {
		return errors.New("wrong-cluster arm did not lose accuracy; RT condition not reproduced")
	}
	if res.Recovery < 0.5 {
		return fmt.Errorf("detector recovered %.2f of the gap (< 0.50)", res.Recovery)
	}
	fmt.Fprintf(r.log, "RT reproduced: wrong-cluster loses %.3f accuracy; detector recovers %.0f%% of the gap\n",
		res.Correct-res.Wrong, 100*res.Recovery)
	return nil
}
