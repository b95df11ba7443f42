// Command clear-serve runs the CLEAR cold-start serving layer as an HTTP
// server: it trains (or loads) a pipeline, then serves the full edge
// lifecycle — enrol, cold-start assignment, asynchronous personalisation,
// continuous monitoring — to concurrent clients. Pair it with
// cmd/clear-loadgen for a closed-loop throughput/latency run.
//
// Usage:
//
//	clear-serve [-addr :8080] [-profile fast|paper] [-seed N] [-scale F]
//	            [-pipeline ckpt] [-save ckpt] [-device gpu|coral|pi]
//	            [-loglevel debug|info|warn|error]
//	            [-store dir] [-snapinterval D]
//	            [-peers url,url,...] [-self url] [-membership-admin]
//	            [-fault-build F] [-fault-stall F] [-fault-corrupt F]
//	            [-chaos-admin] [-breakercooldown D]
//	            [-drift-window N] [-drift-consecutive N] [-drift-cooldown N]
//	            [-slo-p99us F] [-slo-short D] [-slo-long D] [-slo-interval D]
//	            [-slo-minevents N] [-profdir DIR] [-profcpu D] [-profgap D]
//
// A flag exists where a deployment or a CI smoke needs a value other than
// the default; everything else (session cap, executor batch and delay,
// cache and queue sizes, timeouts, SLO objectives, ...) is serve.Config's
// default or a constant in internal/serve.
//
// -store enables durable session persistence through the file-backed
// internal/store backend rooted at the given directory: sessions are
// written through on every lifecycle mutation (plus a periodic
// -snapinterval flush and one more on SIGTERM), fine-tuned models persist
// as content-addressed checkpoint blobs, and owned sessions are restored
// at boot.
//
// -peers turns on router mode: the comma-separated replica URLs (this
// one included, named by -self) form a consistent-hash ring that assigns
// every session ID one owning replica. Non-owners proxy per-session
// requests to the owner; a down owner's sessions fail over to the next
// live node, which hydrates them from the shared -store directory — so
// all replicas in one ring must share it. On SIGTERM a ring member drains
// (hands its sessions off) for at most 30s. The -fault-* flags arm the
// deterministic fault injector (chaos testing, seed 1); all default to 0
// (off).
// With any fault armed (or -chaos-admin set) the durable store is wrapped
// in the fault injector, and failed persists flow into the serving
// layer's write-behind replay queue instead of being dropped. -chaos-admin
// additionally enables POST /v1/chaos (403 without it), which arms
// time-bounded store outages and inbound partitions on the live process —
// the hook cmd/clear-loadgen's -chaos mode drives.
// The -drift-* flags tune the self-healing cluster-assignment detector
// (internal/serve/drift.go).
//
// Every replica serves one route table (internal/serve/http.go): the
// session API, /v1/stats, /v1/slo, /v1/events, /v1/traces/{id}, /healthz,
// /v1/chaos and the observability surface (/metrics, /debug/metrics,
// /debug/pprof, /debug/spans) on the API port — no separate -obs port
// needed. Router mode (-peers) adds /v1/fleet, /v1/membership and
// /v1/rehydrate, and federates /v1/traces/{id} across the ring.
// Structured request logs (JSON, trace-correlated) go to
// stderr at -loglevel and above. The -slo-* flags tune the multi-window
// burn-rate tracker served at /v1/slo; -profdir arms triggered pprof
// capture — a fast burn writes a CPU+heap profile pair into a bounded
// on-disk ring and stamps an always-kept "slo.breach" trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wemac"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		profile  = flag.String("profile", "fast", "experiment profile: fast or paper")
		seed     = flag.Int64("seed", 1, "master seed for data and training")
		scale    = flag.Float64("scale", 1.0, "training population scale factor")
		pipePath = flag.String("pipeline", "", "load a pipeline checkpoint instead of training")
		savePath = flag.String("save", "", "save the trained pipeline checkpoint here")
		device   = flag.String("device", "gpu", "session execution platform: gpu, coral, or pi")
		logLevel = flag.String("loglevel", "info", "structured log threshold: debug, info, warn, or error")

		storeDir     = flag.String("store", "", "durable store directory (enables crash-safe recovery and multi-replica handoff)")
		snapInterval = flag.Duration("snapinterval", 10*time.Second, "periodic store flush cadence")
		peers        = flag.String("peers", "", "comma-separated replica URLs forming the placement ring (router mode)")
		self         = flag.String("self", "", "this replica's URL (router mode; may be absent from -peers to boot as a standby awaiting a join)")
		membAdmin    = flag.Bool("membership-admin", false, "mount POST /v1/membership for runtime join/leave/drain (testing/ops only)")

		faultBuild   = flag.Float64("fault-build", 0, "model-build failure rate [0,1]")
		faultStall   = flag.Float64("fault-stall", 0, "inference stall rate [0,1]")
		faultCorrupt = flag.Float64("fault-corrupt", 0, "window corruption rate [0,1]")
		chaosAdmin   = flag.Bool("chaos-admin", false, "mount POST /v1/chaos for runtime fault windows (testing only)")

		brCooldown = flag.Duration("breakercooldown", 5*time.Second, "breaker open→half-open cooldown")

		driftWindow      = flag.Int("drift-window", 8, "drift-detector evidence ring size in windows")
		driftConsecutive = flag.Int("drift-consecutive", 4, "consecutive positives that raise a drift verdict")
		driftCooldown    = flag.Int("drift-cooldown", 64, "post-re-assignment flap-suppression cooldown in windows")

		sloP99US     = flag.Float64("slo-p99us", 0, "latency objective bound in µs (0 = default 262144)")
		sloShort     = flag.Duration("slo-short", 0, "fast-burn short window (0 = default 30s)")
		sloLong      = flag.Duration("slo-long", 0, "fast-burn long window (0 = default 5m)")
		sloInterval  = flag.Duration("slo-interval", 0, "tracker sampling interval (0 = default 1s)")
		sloMinEvents = flag.Int64("slo-minevents", 0, "short-window event floor before a verdict (0 = default 10)")

		profDir = flag.String("profdir", "", "triggered-profile capture directory (empty = capture off)")
		profCPU = flag.Duration("profcpu", 0, "CPU profile duration per capture (0 = default 250ms)")
		profGap = flag.Duration("profgap", 0, "minimum gap between captures (0 = default 10s)")
	)
	flag.Parse()

	obs.SetLogLevel(obs.ParseLogLevel(*logLevel))

	dev, err := deviceByName(*device)
	die(err)

	var pipe *core.Pipeline
	var arch []int
	if *pipePath != "" {
		sp := obs.StartSpan("serve.load_pipeline")
		f, err := os.Open(*pipePath)
		die(err)
		pipe, err = core.Load(f)
		f.Close()
		sp.End()
		die(err)
		fmt.Printf("loaded pipeline from %s (K=%d, %d training users)\n",
			*pipePath, pipe.Cfg.K, len(pipe.TrainUserIDs))
	} else {
		pipe, arch = trainPipeline(*profile, *seed, *scale)
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		die(err)
		die(pipe.Save(f))
		die(f.Close())
		fmt.Printf("saved pipeline checkpoint to %s\n", *savePath)
	}

	var st store.Store
	if *storeDir != "" {
		st, err = store.NewFile(*storeDir)
		die(err)
		fmt.Printf("durable store at %s\n", *storeDir)
	}

	// Router mode: -peers forms the initial (epoch-1) membership of the
	// versioned placement ring. -self may be absent from it: the replica
	// then boots as a standby — owning nothing, forwarding everything —
	// until an admin join (POST /v1/membership) admits it.
	var memb *shard.Membership
	selfName := *self
	if *peers != "" {
		nodes := strings.Split(*peers, ",")
		for i := range nodes {
			nodes[i] = strings.TrimSpace(nodes[i])
		}
		memb = shard.NewMembership(nodes, 0) // default virtual-node count
		if selfName == "" {
			die(fmt.Errorf("-peers requires -self naming this replica's URL"))
		}
		if st == nil {
			die(fmt.Errorf("-peers requires a shared -store directory for session handoff"))
		}
		if !memb.View().Contains(selfName) {
			fmt.Printf("standby boot: %s is not in the initial ring; awaiting membership join\n", selfName)
		}
	}

	var inj *fault.Injector
	if *faultBuild > 0 || *faultStall > 0 || *faultCorrupt > 0 || *chaosAdmin {
		// Store outages are armed at runtime through POST /v1/chaos.
		inj = fault.New(1).
			Enable(fault.ModelBuild, *faultBuild).
			Enable(fault.InferStall, *faultStall).
			Enable(fault.CorruptWindow, *faultCorrupt)
		pipe.Fault = inj
		fmt.Printf("fault injection armed: build %.2f, stall %.2f, corrupt %.2f\n",
			*faultBuild, *faultStall, *faultCorrupt)
	}
	if inj != nil && st != nil {
		// A failed store write lands in the serving layer's write-behind
		// queue, the one retry path, exactly as a real outage's would.
		st = store.WithFault(st, inj)
	}

	scfg := serve.Config{
		Device:           dev,
		BreakerCooldown:  *brCooldown,
		Store:            st,
		Self:             selfName,
		SnapshotInterval: *snapInterval,
		Fault:            inj,
		ChaosAdmin:       *chaosAdmin,
		MembershipAdmin:  *membAdmin,
		DriftWindow:      *driftWindow,
		DriftConsecutive: *driftConsecutive,
		DriftCooldown:    *driftCooldown,

		SLOLatencyBoundUS: *sloP99US,
		SLOShortWindow:    *sloShort,
		SLOLongWindow:     *sloLong,
		SLOInterval:       *sloInterval,
		SLOMinEvents:      *sloMinEvents,

		ProfileDir:    *profDir,
		ProfileCPUDur: *profCPU,
		ProfileMinGap: *profGap,
	}
	if memb != nil {
		m := memb
		me := selfName
		scfg.OwnsID = func(id string) bool {
			v := m.View()
			return v.Contains(me) && v.Ring().Owner(id) == me
		}
	}
	srv, err := serve.New(pipe, scfg)
	die(err)
	if arch != nil {
		srv.SetClusterArchetypes(arch)
	}
	if st != nil {
		// Restore this replica's share of the stored sessions (all of
		// them outside router mode).
		n, err := srv.RestoreAll(context.Background(), scfg.OwnsID)
		die(err)
		if n > 0 {
			fmt.Printf("restored %d sessions from %s\n", n, *storeDir)
		}
	}

	// Runtime vitals (heap, GC pauses, goroutines, scheduler latency) plus
	// the tensor kernel op counters, on one cadence, into /metrics.
	sampler := obs.StartRuntimeSampler(time.Second, serve.KernelSampleHook())
	if *profDir != "" {
		fmt.Printf("triggered profile capture armed: dir %s\n", *profDir)
	}

	handler := srv.Handler()
	var router *serve.Router
	if memb != nil {
		router = serve.NewRouter(srv, serve.RouterConfig{Self: selfName, Membership: memb})
		handler = router.Handler()
		v := memb.View()
		fmt.Printf("router mode: self %s, epoch %d, ring %v\n", selfName, v.Epoch, v.Members)
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		fmt.Printf("serving CLEAR lifecycle on %s (device %s, clusters %v)\n",
			*addr, dev.Name, pipe.ClusterSizes())
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			die(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\ndraining...")
	// Router mode: graceful drain first, with the HTTP server still up —
	// the replica leaves the ring, sheds creates, and hands every owned
	// session to its new owner (persist → rehydrate-notify → evict)
	// before connections close. An incomplete drain keeps its sessions
	// live until shutdown and exits non-zero with an explicit count.
	drainErr := error(nil)
	if router != nil {
		drainErr = router.Drain(context.Background())
		if drainErr != nil {
			fmt.Fprintf(os.Stderr, "clear-serve: drain_incomplete remaining=%d: %v\n",
				len(srv.LocalIDs()), drainErr)
		}
	}
	_ = hs.Close()
	if router != nil {
		router.Stop()
	}
	srv.Shutdown()
	if st != nil {
		_ = st.Close()
	}
	sampler.Stop()
	fmt.Println("\n── span tree ──")
	fmt.Println(obs.SpanTree())
	fmt.Println("\n── metrics ──")
	fmt.Println(obs.MetricsDump())
	if drainErr != nil {
		os.Exit(1)
	}
}

// trainPipeline builds the serving pipeline from a synthetic WEMAC
// population, returning the per-cluster dominant ground-truth archetypes
// for the /v1/stats diagnostic.
func trainPipeline(profile string, seed int64, scale float64) (*core.Pipeline, []int) {
	cfg, err := core.ProfileConfig(profile, seed)
	die(err)
	dcfg := wemac.ScaledConfig(seed, scale)
	start := time.Now()
	fmt.Printf("generating synthetic WEMAC population (%v volunteers)...\n", dcfg.ArchetypeSizes)
	gsp := obs.StartSpan("serve.generate")
	ds := wemac.Generate(dcfg)
	users, err := wemac.ExtractAll(ds, cfg.Extractor)
	gsp.End()
	die(err)
	fmt.Printf("training CLEAR pipeline on %d users...\n", len(users))
	tsp := obs.StartSpan("serve.train")
	pipe, err := core.Train(users, cfg)
	tsp.End()
	die(err)
	fmt.Printf("trained in %v, cluster sizes %v\n", time.Since(start).Round(time.Second), pipe.ClusterSizes())
	arch := make([]int, pipe.Cfg.K)
	for k := range arch {
		arch[k] = eval.DominantArchetype(pipe, users, k)
	}
	fmt.Printf("cluster dominant archetypes %v\n", arch)
	return pipe, arch
}

func deviceByName(name string) (edge.Device, error) {
	switch name {
	case "gpu":
		return edge.GPU(), nil
	case "coral":
		return edge.CoralTPU(), nil
	case "pi":
		return edge.PiNCS2(), nil
	}
	return edge.Device{}, fmt.Errorf("unknown device %q (want gpu, coral, or pi)", name)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "clear-serve:", err)
		os.Exit(1)
	}
}
