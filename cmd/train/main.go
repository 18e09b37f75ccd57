// Command train runs (and resumes) hybrid quantum-classical training jobs
// from the command line, with checkpointing and optional failure injection.
//
// Examples:
//
//	train -task vqe -qubits 4 -layers 2 -steps 50 -ckpt /tmp/run1
//	train -task vqe -qubits 4 -layers 2 -steps 100 -ckpt /tmp/run1 -resume
//	train -task unitary -qubits 2 -layers 3 -pairs 12 -batch 4 -steps 60
//	train -task maxcut -qubits 6 -p 2 -steps 40 -mtbf 5m -ckpt /tmp/run2
//	train -task vqe -qubits 4 -layers 2 -steps 50 -ckpt /tmp/run3 -async -workers 4 -chunk 64
//	train -task vqe -qubits 4 -layers 2 -steps 80 -ckpt /tmp/run4 -chunk 64 -tiers nvme+object -keep-hot 2
//	train -task vqe -qubits 4 -layers 2 -steps 100 -ckpt /tmp/run1 -resume -restore-workers 0
//	train -task vqe -qubits 4 -layers 2 -steps 40 -ckpt /tmp/fleet -chunk 64 -jobs 8
//	train -task vqe -qubits 4 -layers 2 -steps 40 -remote http://127.0.0.1:7723 -chunk 64 -jobs 4
//	train -task vqe -qubits 4 -layers 2 -steps 40 -remote http://127.0.0.1:7723 -chunk 64 -restorers 16
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/failure"
	"repro/internal/observable"
	"repro/internal/qpu"
	"repro/internal/remote"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/train"
)

func main() {
	var (
		taskName  = flag.String("task", "vqe", "training task: vqe, maxcut, unitary, classify")
		qubits    = flag.Int("qubits", 4, "qubit count")
		layers    = flag.Int("layers", 2, "ansatz layers (vqe/unitary/classify)")
		qaoaP     = flag.Int("p", 2, "QAOA depth (maxcut)")
		steps     = flag.Int("steps", 50, "optimizer steps to reach")
		shots     = flag.Int("shots", 128, "shots per evaluation batch")
		lr        = flag.Float64("lr", 0.1, "learning rate")
		optName   = flag.String("optimizer", "adam", "optimizer: sgd, momentum, adagrad, rmsprop, adam")
		seed      = flag.Uint64("seed", 1, "master RNG seed")
		pairs     = flag.Int("pairs", 12, "dataset size (unitary/classify)")
		batch     = flag.Int("batch", 4, "minibatch size (unitary/classify)")
		ckptDir   = flag.String("ckpt", "", "checkpoint directory (empty disables checkpointing)")
		resume    = flag.Bool("resume", false, "resume from the newest checkpoint in -ckpt")
		interval  = flag.Int("interval", 1, "checkpoint every N steps (0 disables the step trigger)")
		units     = flag.Int("units", 0, "checkpoint every N gradient work units (sub-step; 0 disables)")
		grouped   = flag.Bool("grouped", false, "use measurement grouping (vqe/maxcut)")
		mtbf      = flag.Duration("mtbf", 0, "inject Poisson session failures with this MTBF (0 disables)")
		realQPU   = flag.Bool("qpu-latency", false, "model realistic QPU latencies (default: latency-free)")
		async     = flag.Bool("async", false, "write checkpoints asynchronously")
		workers   = flag.Int("workers", 1, "checkpoint write workers (chunked pipeline)")
		chunkKB   = flag.Int("chunk", 0, "chunk checkpoints into KB-sized deduplicated pieces (0 = monolithic)")
		chunker   = flag.String("chunker", "fixed", "chunk boundary policy with -chunk: fixed (offset-based) or cdc (content-defined, shift-resilient; -chunk sets the target average)")
		tiers     = flag.String("tiers", "", "tiered checkpoint placement preset: device levels hot-to-cold joined by '+' (e.g. nvme+object, nvme+nfs+object); empty disables tiering")
		keepHot   = flag.Int("keep-hot", 2, "anchor chains kept on the hot tier before demotion (with -tiers)")
		restoreW  = flag.Int("restore-workers", 1, "parallel chunk-restore workers for -resume (1 = serial, ≤0 = one per CPU)")
		jobsN     = flag.Int("jobs", 1, "concurrent training jobs checkpointing into ONE multi-tenant store under -ckpt (cross-job chunk dedup; job j trains with seed+j)")
		remoteURL = flag.String("remote", "", "checkpoint to a qckpt server at this URL (e.g. http://host:7723; see `qckpt serve`) instead of a local -ckpt directory")
		restorers = flag.Int("restorers", 0, "after training, drill N concurrent restorers against the store and verify every recovery is bitwise (the T9 gang-restore wave; 0 disables)")
		quotaMiB  = flag.Int("quota", 0, "fleet: per-job byte quota in MiB on the local multi-tenant store (0 = unlimited)")
		rateMiB   = flag.Int("rate", 0, "fleet: per-job checkpoint write rate limit in MiB/s on the local multi-tenant store (0 = unlimited)")
	)
	flag.Parse()

	if err := checkFlagLikeArgs(flag.Args(), *ckptDir); err != nil {
		fatal(err)
	}

	chunkPolicy, err := parseChunker(*chunker)
	if err != nil {
		fatal(err)
	}
	if chunkPolicy == core.ChunkerCDC && *chunkKB <= 0 {
		fatal(errors.New("-chunker cdc requires -chunk KB (the target average chunk size)"))
	}

	if (*quotaMiB > 0 || *rateMiB > 0) && (*jobsN <= 1 || *remoteURL != "") {
		fatal(errors.New("-quota/-rate apply to the local fleet store; they need -jobs N -ckpt dir (remote stores are limited server-side via qckpt serve)"))
	}

	if *restorers > 0 && *ckptDir == "" && *remoteURL == "" {
		fatal(errors.New("-restorers requires -ckpt or -remote (the gang needs a store to restore from)"))
	}

	if *remoteURL != "" {
		if *ckptDir != "" {
			fatal(errors.New("-remote and -ckpt are mutually exclusive (the server owns the store)"))
		}
		if *tiers != "" {
			fatal(errors.New("-remote and -tiers are mutually exclusive (tier the store server-side)"))
		}
	}

	if *jobsN > 1 {
		if *ckptDir == "" && *remoteURL == "" {
			fatal(errors.New("-jobs requires -ckpt (the shared store root) or -remote (a qckpt server)"))
		}
		if *tiers != "" {
			fatal(errors.New("-jobs and -tiers are mutually exclusive (tier the store root with qckpt instead)"))
		}
		if *mtbf > 0 {
			fatal(errors.New("-jobs and -mtbf are mutually exclusive (failure injection drives a single job's crash/resume contract)"))
		}
		if *restorers > 0 {
			fatal(errors.New("-jobs and -restorers are mutually exclusive (drill the gang against a single job's chain)"))
		}
		fleet := fleetFlags{
			jobs: *jobsN, task: *taskName, qubits: *qubits, layers: *layers, qaoaP: *qaoaP,
			steps: *steps, shots: *shots, lr: *lr, opt: *optName, seed: *seed,
			pairs: *pairs, batch: *batch, grouped: *grouped, realQPU: *realQPU,
			ckptDir: *ckptDir, resume: *resume, interval: *interval, units: *units,
			async: *async, workers: *workers, chunkKB: *chunkKB,
			chunker:  chunkPolicy,
			restoreW: *restoreW, remote: *remoteURL,
			quotaMiB: *quotaMiB, rateMiB: *rateMiB,
		}
		if err := runJobs(fleet); err != nil {
			fatal(err)
		}
		return
	}

	cfg, err := buildConfig(*taskName, *qubits, *layers, *qaoaP, *shots, *lr, *optName, *seed, *pairs, *batch, *grouped, *realQPU)
	if err != nil {
		fatal(err)
	}
	if *mtbf > 0 {
		horizon := time.Duration(*steps) * time.Hour
		sched, err := failure.NewPoisson(*mtbf, horizon, rng.New(*seed+1))
		if err != nil {
			fatal(err)
		}
		cfg.Failures = sched
	}

	var remoteClient *remote.Client
	if *remoteURL != "" {
		remoteClient, err = remote.Dial(*remoteURL, remote.Options{})
		if err != nil {
			fatal(err)
		}
		defer remoteClient.Close()
	}

	var mgr *core.Manager
	if *ckptDir != "" || remoteClient != nil {
		opt := core.Options{
			Dir: *ckptDir, Strategy: core.StrategyDelta, AnchorEvery: 16, Retain: 4,
			Async: *async, Workers: *workers, ChunkBytes: *chunkKB << 10,
			Chunker: chunkPolicy,
		}
		if remoteClient != nil {
			opt.Backend = remoteClient
		}
		if *tiers != "" {
			// Tiered preset: hot level at the checkpoint dir, colder
			// device-modeled levels under it, old anchor chains demoted once
			// they leave the hot set.
			if opt.Backend, err = storage.NewTieredDir(*ckptDir, strings.Split(*tiers, "+")); err != nil {
				fatal(err)
			}
			opt.Lifecycle = core.LifecyclePolicy{KeepHotChains: *keepHot}
		}
		mgr, err = core.NewManager(opt)
		if err != nil {
			fatal(err)
		}
		defer mgr.Close()
		cfg.Manager = mgr
		cfg.Policy = core.Policy{EverySteps: *interval, EveryUnits: *units}
	}

	var tr *train.Trainer
	if *resume {
		if *ckptDir == "" && remoteClient == nil {
			fatal(errors.New("-resume requires -ckpt or -remote"))
		}
		ropts := core.RestoreOptions{Workers: *restoreW}
		if *restoreW <= 0 {
			ropts = core.DefaultRestoreOptions()
		}
		// A remote store reports the restored key; a directory, its file path.
		store, where := storage.Backend(remoteClient), ""
		if remoteClient == nil {
			where = *ckptDir
			if store, err = core.DirBackend(where); err != nil {
				fatal(err)
			}
		}
		var report core.LoadReport
		tr, report, err = train.ResumeLatestBackendOptions(cfg, store, ropts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resumed %s at step %d (chain length %d)\n", filepath.Join(where, report.Path), tr.Step(), report.ChainLen)
	} else {
		tr, err = train.New(cfg)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("task=%s circuit=%s optimizer=%s shots=%d seed=%d\n",
		cfg.Task.Name(), cfg.Circuit, cfg.OptimizerName, cfg.Shots, cfg.Seed)
	start := time.Now()
	for int(tr.Step()) < *steps {
		if err := tr.RunStep(); err != nil {
			if errors.Is(err, qpu.ErrPreempted) {
				fmt.Printf("step %d: session preempted at QPU t=%v; retrying\n",
					tr.Step(), tr.Backend().Clock().Round(time.Second))
				continue
			}
			fatal(err)
		}
		if tr.Step()%5 == 0 || int(tr.Step()) == *steps {
			fmt.Printf("step %4d  loss %10.6f  qpu %v  shots %d\n",
				tr.Step(), tr.LossHistory()[tr.Step()-1],
				tr.Backend().Clock().Round(time.Second), tr.Backend().TotalShots())
		}
	}
	fmt.Printf("done: best loss %.6f, wall %v, %d checkpoints written\n",
		tr.BestLoss(), time.Since(start).Round(time.Millisecond), tr.Checkpoints())
	if mgr != nil {
		if err := mgr.Barrier(); err != nil { // flush async writes so the counters are final
			fatal(err)
		}
		if st := mgr.Stats(); st.Chunks > 0 {
			fmt.Printf("chunk pipeline: %d chunks (%d clean, %d dedup, %d raw-framed), %d bytes written\n",
				st.Chunks, st.CleanChunks, st.DedupHits, st.RawChunks, st.BytesWritten)
		}
		if remoteClient != nil {
			if st, serr := remoteClient.Stats(); serr == nil {
				fmt.Printf("server: %d chunk upload(s) (%d dedup hit(s)), %d B offered, %d B written, %d manifest commit(s)\n",
					st.ChunksIngested, st.ChunkDedupHits, st.ChunkBytesOffered, st.ChunkBytesWritten, st.ManifestsCommitted)
			}
		}
	}
	if *restorers > 0 {
		if mgr == nil {
			fatal(errors.New("-restorers needs checkpoints to restore (no checkpointing was configured)"))
		}
		if err := gangDrill(*restorers, *ckptDir, *remoteURL, *restoreW); err != nil {
			fatal(err)
		}
	}
}

// gangDrill replays the T9 preemption-wave restore: n concurrent
// restorers each recover the newest checkpoint from the store (each
// over its own connection when the store is a qckpt server, so the
// server's single-flight origin cache absorbs the fan-out) and every
// recovered state must be bitwise-identical to a reference restore.
func gangDrill(n int, ckptDir, remoteURL string, restoreW int) error {
	ropts := core.RestoreOptions{Workers: restoreW}
	if restoreW <= 0 {
		ropts = core.DefaultRestoreOptions()
	}
	load := func(tenant string) (*core.TrainingState, core.LoadReport, error) {
		if remoteURL != "" {
			c, err := remote.Dial(remoteURL, remote.Options{Tenant: tenant})
			if err != nil {
				return nil, core.LoadReport{}, err
			}
			defer c.Close()
			return core.LoadLatestBackendOptions(c, nil, ropts)
		}
		b, err := core.DirBackend(ckptDir)
		if err != nil {
			return nil, core.LoadReport{}, err
		}
		return core.LoadLatestBackendOptions(b, nil, ropts)
	}
	ref, report, err := load("restore-ref")
	if err != nil {
		return fmt.Errorf("gang-restore reference: %w", err)
	}
	start := time.Now()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			got, _, rerr := load(fmt.Sprintf("restorer%03d", j))
			if rerr != nil {
				errs[j] = rerr
				return
			}
			if !got.Equal(ref) {
				errs[j] = fmt.Errorf("restorer %d: recovered state not bitwise-identical", j)
			}
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("gang-restore drill: %w", err)
		}
	}
	fmt.Printf("gang-restore drill: %d restorers recovered step %d bitwise in %v\n",
		n, report.Step, time.Since(start).Round(time.Millisecond))
	return nil
}

func buildConfig(taskName string, qubits, layers, qaoaP, shots int, lr float64, optName string, seed uint64, pairs, batch int, grouped, realQPU bool) (train.Config, error) {
	cfg := train.Config{
		OptimizerName: optName,
		LearningRate:  lr,
		Shots:         shots,
		Seed:          seed,
	}
	if realQPU {
		cfg.QPU = qpu.DefaultConfig()
	}
	switch taskName {
	case "vqe":
		h := observable.TFIM(qubits, 1.0, 0.7)
		var task train.Task
		var err error
		if grouped {
			task, err = train.NewGroupedVQETask(h)
		} else {
			task, err = train.NewVQETask(h)
		}
		if err != nil {
			return cfg, err
		}
		cfg.Task = task
		cfg.Circuit = circuit.HardwareEfficient(qubits, layers)
	case "maxcut":
		h := observable.MaxCut(qubits, observable.RingEdges(qubits))
		var task train.Task
		var err error
		if grouped {
			task, err = train.NewGroupedVQETask(h)
		} else {
			task, err = train.NewVQETask(h)
		}
		if err != nil {
			return cfg, err
		}
		cfg.Task = task
		qc, err := circuit.QAOA(h, qaoaP)
		if err != nil {
			return cfg, err
		}
		cfg.Circuit = qc
	case "unitary":
		d, err := dataset.NewUnitaryLearning(qubits, pairs, rng.New(seed+100))
		if err != nil {
			return cfg, err
		}
		task, err := train.NewStateLearningTask(d)
		if err != nil {
			return cfg, err
		}
		cfg.Task = task
		cfg.Circuit = circuit.HardwareEfficient(qubits, layers)
		cfg.BatchSize = batch
	case "classify":
		d, err := dataset.NewBlobs(qubits, pairs, 2.0, rng.New(seed+200))
		if err != nil {
			return cfg, err
		}
		task, err := train.NewClassificationTask(d, 0)
		if err != nil {
			return cfg, err
		}
		cfg.Task = task
		cfg.Circuit = circuit.HardwareEfficient(qubits, layers)
		cfg.BatchSize = batch
	default:
		return cfg, fmt.Errorf("unknown task %q", taskName)
	}
	return cfg, nil
}

// checkFlagLikeArgs refuses arguments that look like flags. flag.Parse
// stops at the first positional argument, so a flag typed after one
// ("train steps 40 -ckpt d") or a flag swallowed as another flag's value
// ("-ckpt -listen") arrives looking like a path — and acting on it would
// create a directory literally named "-listen".
// parseChunker maps the -chunker flag onto the core boundary policy.
func parseChunker(name string) (core.Chunker, error) {
	switch name {
	case "fixed", "":
		return core.ChunkerFixed, nil
	case "cdc":
		return core.ChunkerCDC, nil
	default:
		return core.ChunkerFixed, fmt.Errorf("unknown -chunker %q (want fixed or cdc)", name)
	}
}

func checkFlagLikeArgs(positionals []string, ckptDir string) error {
	for _, a := range positionals {
		if strings.HasPrefix(a, "-") {
			return fmt.Errorf("argument %q looks like a flag; train takes flags only (check the flag order)", a)
		}
	}
	if strings.HasPrefix(ckptDir, "-") {
		return fmt.Errorf("-ckpt %q looks like a flag, not a directory (did -ckpt swallow the next flag?)", ckptDir)
	}
	return nil
}

// fleetFlags carries the flag values of a -jobs run.
type fleetFlags struct {
	jobs                                        int
	task                                        string
	qubits, layers, qaoaP, steps, shots         int
	lr                                          float64
	opt                                         string
	seed                                        uint64
	pairs, batch                                int
	grouped, realQPU                            bool
	ckptDir                                     string
	resume                                      bool
	interval, units, workers, chunkKB, restoreW int
	async                                       bool
	chunker                                     core.Chunker
	remote                                      string
	quotaMiB, rateMiB                           int
}

// runJobs drives N concurrent training jobs into one multi-tenant
// checkpoint store: every job gets its own manifest namespace
// (jobs/job<i>/) and Manager, all sharing a single sharded chunk store —
// so replicas that agree on most of their state pay for it once. Job i
// trains with seed+i; the summary reports per-job results plus the
// fleet-wide dedup accounting.
func runJobs(f fleetFlags) error {
	var svc *core.Service
	if f.remote == "" {
		s, err := core.NewService(core.ServiceOptions{
			Dir: f.ckptDir,
			QoS: core.QoSConfig{Default: core.TenantQoS{
				QuotaBytes:      int64(f.quotaMiB) << 20,
				RateBytesPerSec: int64(f.rateMiB) << 20,
			}},
		})
		if err != nil {
			return err
		}
		svc = s
		defer svc.Close()
	}

	type jobResult struct {
		id          string
		steps       uint64
		bestLoss    float64
		checkpoints int
		stats       core.Stats
		wall        time.Duration
		resumedAt   uint64
		err         error
	}
	results := make([]jobResult, f.jobs)
	var wg sync.WaitGroup
	start := time.Now()
	for j := 0; j < f.jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			id := fmt.Sprintf("job%02d", j)
			res := jobResult{id: id}
			defer func() { results[j] = res }()
			cfg, err := buildConfig(f.task, f.qubits, f.layers, f.qaoaP, f.shots, f.lr, f.opt,
				f.seed+uint64(j), f.pairs, f.batch, f.grouped, f.realQPU)
			if err != nil {
				res.err = err
				return
			}
			jobOpt := core.Options{
				Strategy: core.StrategyDelta, AnchorEvery: 16, Retain: 4,
				Async: f.async, Workers: f.workers, ChunkBytes: f.chunkKB << 10,
				Chunker: f.chunker,
			}
			var mgr *core.Manager
			var view storage.Backend
			if f.remote != "" {
				// Each job dials its own connection (tenant = job id, so the
				// server's admission control sees jobs independently) and
				// scopes its manifests under jobs/<id>/ — the same namespace
				// a local fleet uses, shared chunk plane included.
				client, derr := remote.Dial(f.remote, remote.Options{Tenant: id})
				if derr != nil {
					res.err = derr
					return
				}
				defer client.Close()
				view, err = core.JobBackend(client, id)
				if err != nil {
					res.err = err
					return
				}
				jobOpt.Backend = view
				mgr, err = core.NewManager(jobOpt)
			} else {
				mgr, err = svc.OpenJob(id, jobOpt)
			}
			if err != nil {
				res.err = err
				return
			}
			defer mgr.Close()
			cfg.Manager = mgr
			cfg.Policy = core.Policy{EverySteps: f.interval, EveryUnits: f.units}

			var tr *train.Trainer
			if f.resume {
				if view == nil {
					var verr error
					view, verr = svc.JobView(id)
					if verr != nil {
						res.err = verr
						return
					}
				}
				ropts := core.RestoreOptions{Workers: f.restoreW}
				if f.restoreW <= 0 {
					ropts = core.DefaultRestoreOptions()
				}
				var report core.LoadReport
				tr, report, err = train.ResumeLatestBackendOptions(cfg, view, ropts)
				if err != nil {
					res.err = err
					return
				}
				res.resumedAt = report.Step
			} else {
				tr, err = train.New(cfg)
				if err != nil {
					res.err = err
					return
				}
			}
			jobStart := time.Now()
			for int(tr.Step()) < f.steps {
				if err := tr.RunStep(); err != nil {
					if errors.Is(err, qpu.ErrPreempted) {
						continue
					}
					res.err = err
					return
				}
			}
			if err := mgr.Barrier(); err != nil {
				res.err = err
				return
			}
			res.steps = tr.Step()
			res.bestLoss = tr.BestLoss()
			res.checkpoints = tr.Checkpoints()
			res.stats = mgr.Stats()
			res.wall = time.Since(jobStart)
		}(j)
	}
	wg.Wait()

	store := f.ckptDir
	if f.remote != "" {
		store = f.remote
	}
	fmt.Printf("fleet: %d jobs, task=%s, store=%s\n", f.jobs, f.task, store)
	var agg core.Stats
	failed := 0
	for _, r := range results {
		if r.err != nil {
			failed++
			fmt.Printf("  %s  FAILED: %v\n", r.id, r.err)
			continue
		}
		resumed := ""
		if f.resume {
			resumed = fmt.Sprintf(" (resumed at step %d)", r.resumedAt)
		}
		fmt.Printf("  %s  steps %d  best loss %.6f  ckpts %d  wrote %d B  wall %v%s\n",
			r.id, r.steps, r.bestLoss, r.checkpoints, r.stats.BytesWritten,
			r.wall.Round(time.Millisecond), resumed)
		agg.BytesWritten += r.stats.BytesWritten
		agg.Chunks += r.stats.Chunks
		agg.DedupHits += r.stats.DedupHits
		agg.CleanChunks += r.stats.CleanChunks
		agg.Snapshots += r.stats.Snapshots
	}
	if agg.Chunks > 0 {
		resident := "store size unavailable"
		if svc != nil {
			if storeBytes, err := svc.ChunkStore().TotalBytes(); err == nil {
				resident = fmt.Sprintf("%d B resident in the shared store", storeBytes)
			}
		} else if client, err := remote.Dial(f.remote, remote.Options{Tenant: "fleet-stats"}); err == nil {
			if st, serr := client.Stats(); serr == nil {
				resident = fmt.Sprintf("%d B written server-side (%d dedup hit(s) at the server)",
					st.ChunkBytesWritten, st.ChunkDedupHits)
			}
			client.Close()
		}
		fmt.Printf("fleet chunk pipeline: %d snapshots, %d chunks (%d clean, %d dedup), %d B written, %s\n",
			agg.Snapshots, agg.Chunks, agg.CleanChunks, agg.DedupHits, agg.BytesWritten, resident)
	}
	fmt.Printf("fleet done in %v\n", time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, f.jobs)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "train: %v\n", err)
	os.Exit(1)
}
