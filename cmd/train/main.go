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
	"io"
	"os"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "train: %v\n", err)
		os.Exit(1)
	}
}

// jobResult is what one training job hands back to its runner.
type jobResult struct {
	tr        *train.Trainer
	resumedAt uint64          // step the job resumed at (with -resume)
	stats     core.Stats      // its manager's counters after the final barrier
	store     storage.Backend // the backend its manager wrote; nil without checkpointing
	wall      time.Duration
}

// run parses args and trains: one job with -jobs 1, else -jobs concurrent
// jobs, each through the same job runner. Progress and summaries go to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	var (
		taskName  = fs.String("task", "vqe", "training task: vqe, maxcut, unitary, classify")
		qubits    = fs.Int("qubits", 4, "qubit count")
		layers    = fs.Int("layers", 2, "ansatz layers (vqe/unitary/classify)")
		qaoaP     = fs.Int("p", 2, "QAOA depth (maxcut)")
		steps     = fs.Int("steps", 50, "optimizer steps to reach")
		shots     = fs.Int("shots", 128, "shots per evaluation batch")
		lr        = fs.Float64("lr", 0.1, "learning rate")
		optName   = fs.String("optimizer", "adam", "optimizer: sgd, momentum, adagrad, rmsprop, adam")
		seed      = fs.Uint64("seed", 1, "master RNG seed")
		pairs     = fs.Int("pairs", 12, "dataset size (unitary/classify)")
		batch     = fs.Int("batch", 4, "minibatch size (unitary/classify)")
		ckptDir   = fs.String("ckpt", "", "checkpoint directory (empty disables checkpointing)")
		resume    = fs.Bool("resume", false, "resume from the newest checkpoint in -ckpt")
		interval  = fs.Int("interval", 1, "checkpoint every N steps (0 disables the step trigger)")
		units     = fs.Int("units", 0, "checkpoint every N gradient work units (sub-step; 0 disables)")
		grouped   = fs.Bool("grouped", false, "use measurement grouping (vqe/maxcut)")
		mtbf      = fs.Duration("mtbf", 0, "inject Poisson session failures with this MTBF (0 disables)")
		realQPU   = fs.Bool("qpu-latency", false, "model realistic QPU latencies (default: latency-free)")
		async     = fs.Bool("async", false, "write checkpoints asynchronously")
		workers   = fs.Int("workers", 1, "checkpoint write workers (chunked pipeline)")
		chunkKB   = fs.Int("chunk", 0, "chunk checkpoints into KB-sized deduplicated pieces (0 = monolithic)")
		chunker   = fs.String("chunker", "fixed", "chunk boundary policy with -chunk: fixed (offset-based) or cdc (content-defined, shift-resilient; -chunk sets the target average)")
		tiers     = fs.String("tiers", "", "tiered checkpoint placement preset: device levels hot-to-cold joined by '+' (e.g. nvme+object, nvme+nfs+object); empty disables tiering")
		keepHot   = fs.Int("keep-hot", 2, "anchor chains kept on the hot tier before demotion (with -tiers)")
		restoreW  = fs.Int("restore-workers", 1, "parallel chunk-restore workers for -resume (1 = serial, ≤0 = one per CPU)")
		jobsN     = fs.Int("jobs", 1, "concurrent training jobs checkpointing into ONE multi-tenant store under -ckpt (cross-job chunk dedup; job j trains with seed+j)")
		remoteURL = fs.String("remote", "", "checkpoint to a qckpt server at this URL (e.g. http://host:7723; see `qckpt serve`) instead of a local -ckpt directory")
		restorers = fs.Int("restorers", 0, "after training, drill N concurrent restorers against the store and verify every recovery is bitwise (the T9 gang-restore wave; 0 disables)")
		quotaMiB  = fs.Int("quota", 0, "fleet: per-job byte quota in MiB on the local multi-tenant store (0 = unlimited)")
		rateMiB   = fs.Int("rate", 0, "fleet: per-job checkpoint write rate limit in MiB/s on the local multi-tenant store (0 = unlimited)")
	)
	fs.Parse(args)

	if err := checkFlagLikeArgs(fs.Args(), *ckptDir); err != nil {
		return err
	}
	chunkPolicy, err := parseChunker(*chunker)
	if err != nil {
		return err
	}
	if chunkPolicy == core.ChunkerCDC && *chunkKB <= 0 {
		return errors.New("-chunker cdc requires -chunk KB (the target average chunk size)")
	}
	fleet := *jobsN > 1
	if (*quotaMiB > 0 || *rateMiB > 0) && (!fleet || *remoteURL != "") {
		return errors.New("-quota/-rate apply to the local fleet store; they need -jobs N -ckpt dir (remote stores are limited server-side via qckpt serve)")
	}
	if *restorers > 0 && *ckptDir == "" && *remoteURL == "" {
		return errors.New("-restorers requires -ckpt or -remote (the gang needs a store to restore from)")
	}
	if *remoteURL != "" {
		if *ckptDir != "" {
			return errors.New("-remote and -ckpt are mutually exclusive (the server owns the store)")
		}
		if *tiers != "" {
			return errors.New("-remote and -tiers are mutually exclusive (tier the store server-side)")
		}
	}
	if fleet {
		if *ckptDir == "" && *remoteURL == "" {
			return errors.New("-jobs requires -ckpt (the shared store root) or -remote (a qckpt server)")
		}
		if *tiers != "" {
			return errors.New("-jobs and -tiers are mutually exclusive (tier the store root with qckpt instead)")
		}
		if *mtbf > 0 {
			return errors.New("-jobs and -mtbf are mutually exclusive (failure injection drives a single job's crash/resume contract)")
		}
		if *restorers > 0 {
			return errors.New("-jobs and -restorers are mutually exclusive (drill the gang against a single job's chain)")
		}
	}
	if *resume && *ckptDir == "" && *remoteURL == "" {
		return errors.New("-resume requires -ckpt or -remote")
	}
	ropts := core.RestoreOptions{Workers: *restoreW}
	if *restoreW <= 0 {
		ropts = core.DefaultRestoreOptions()
	}

	// open returns job id's checkpoint manager and what closes it. A single
	// job writes the store root (a directory, a tiered preset or a server);
	// a fleet job writes jobs/<id>/ of one multi-tenant store whose chunks
	// every job shares. Nil without a store: no checkpointing.
	var open func(id string) (*core.Manager, func() error, error)
	var svc *core.Service     // a local fleet's store
	var client *remote.Client // a single job's server
	opt := core.Options{
		Strategy: core.StrategyDelta, AnchorEvery: 16, Retain: 4,
		Async: *async, Workers: *workers, ChunkBytes: *chunkKB << 10,
		Chunker: chunkPolicy,
	}
	switch {
	case *ckptDir == "" && *remoteURL == "":
	case fleet && *remoteURL != "":
		open = func(id string) (*core.Manager, func() error, error) {
			// Each job dials its own connection (tenant = job id, so the
			// server's admission control sees jobs independently) and
			// scopes its manifests under jobs/<id>/ — the same namespace
			// a local fleet uses, shared chunk plane included.
			c, err := remote.Dial(*remoteURL, remote.Options{Tenant: id})
			if err != nil {
				return nil, nil, err
			}
			jobOpt := opt
			var m *core.Manager
			if jobOpt.Backend, err = core.JobBackend(c, id); err == nil {
				m, err = core.NewManager(jobOpt)
			}
			if err != nil {
				c.Close()
				return nil, nil, err
			}
			return m, func() error { defer c.Close(); return m.Close() }, nil
		}
	case fleet:
		store, err := storage.NewLocal(*ckptDir)
		if err != nil {
			return err
		}
		if svc, err = core.NewService(core.ServiceOptions{
			Backend: store,
			QoS: core.QoSConfig{Default: core.TenantQoS{
				QuotaBytes:      int64(*quotaMiB) << 20,
				RateBytesPerSec: int64(*rateMiB) << 20,
			}},
		}); err != nil {
			return err
		}
		defer svc.Close()
		open = func(id string) (*core.Manager, func() error, error) {
			m, err := svc.OpenJob(id, opt)
			return m, m.Close, err
		}
	default:
		switch {
		case *remoteURL != "":
			if client, err = remote.Dial(*remoteURL, remote.Options{}); err != nil {
				return err
			}
			defer client.Close()
			opt.Backend = client
		case *tiers != "":
			// Tiered preset: hot level at the checkpoint dir, colder
			// device-modeled levels under it, old anchor chains demoted once
			// they leave the hot set.
			if opt.Backend, err = storage.NewTieredDir(*ckptDir, strings.Split(*tiers, "+")); err != nil {
				return err
			}
			opt.Lifecycle = core.LifecyclePolicy{KeepHotChains: *keepHot}
		default:
			if opt.Backend, err = storage.NewLocal(*ckptDir); err != nil {
				return err
			}
		}
		open = func(string) (*core.Manager, func() error, error) {
			m, err := core.NewManager(opt)
			return m, m.Close, err
		}
	}

	// job trains job id with seed up to -steps — resumed from the newest
	// checkpoint its manager's backend holds with -resume, so a tiered
	// store falls back through its cold levels — and reports progress to w.
	job := func(id string, seed uint64, w io.Writer) (res jobResult, err error) {
		cfg, err := buildConfig(*taskName, *qubits, *layers, *qaoaP, *shots, *lr, *optName, seed, *pairs, *batch, *grouped, *realQPU)
		if err != nil {
			return res, err
		}
		if *mtbf > 0 {
			horizon := time.Duration(*steps) * time.Hour
			if cfg.Failures, err = failure.NewPoisson(*mtbf, horizon, rng.New(seed+1)); err != nil {
				return res, err
			}
		}
		if open != nil {
			m, done, err := open(id)
			if err != nil {
				return res, err
			}
			defer done()
			cfg.Manager, res.store = m, m.Backend()
			cfg.Policy = core.Policy{EverySteps: *interval, EveryUnits: *units}
		}
		if *resume {
			var report core.LoadReport
			if res.tr, report, err = train.ResumeLatestBackendOptions(cfg, res.store, ropts); err != nil {
				return res, err
			}
			res.resumedAt = report.Step
			fmt.Fprintf(w, "resumed %s at step %d (chain length %d)\n", report.Path, report.Step, report.ChainLen)
		} else if res.tr, err = train.New(cfg); err != nil {
			return res, err
		}
		tr := res.tr
		fmt.Fprintf(w, "task=%s circuit=%s optimizer=%s shots=%d seed=%d\n",
			cfg.Task.Name(), cfg.Circuit, cfg.OptimizerName, cfg.Shots, cfg.Seed)
		start := time.Now()
		for int(tr.Step()) < *steps {
			if err := tr.RunStep(); err != nil {
				if errors.Is(err, qpu.ErrPreempted) {
					fmt.Fprintf(w, "step %d: session preempted at QPU t=%v; retrying\n",
						tr.Step(), tr.Backend().Clock().Round(time.Second))
					continue
				}
				return res, err
			}
			if tr.Step()%5 == 0 || int(tr.Step()) == *steps {
				fmt.Fprintf(w, "step %4d  loss %10.6f  qpu %v  shots %d\n",
					tr.Step(), tr.LossHistory()[tr.Step()-1],
					tr.Backend().Clock().Round(time.Second), tr.Backend().TotalShots())
			}
		}
		if cfg.Manager != nil {
			if err := cfg.Manager.Barrier(); err != nil { // flush async writes so the counters are final
				return res, err
			}
			res.stats = cfg.Manager.Stats()
		}
		res.wall = time.Since(start)
		fmt.Fprintf(w, "done: best loss %.6f, wall %v, %d checkpoints written\n",
			tr.BestLoss(), res.wall.Round(time.Millisecond), tr.Checkpoints())
		return res, nil
	}

	if fleet {
		store := *ckptDir
		if *remoteURL != "" {
			store = *remoteURL
		}
		return runFleet(out, *jobsN, *seed, job, svc, *taskName, store, *resume)
	}
	res, err := job("", *seed, out)
	if err != nil {
		return err
	}
	if st := res.stats; st.Chunks > 0 {
		fmt.Fprintf(out, "chunk pipeline: %d chunks (%d clean, %d dedup, %d raw-framed), %d bytes written\n",
			st.Chunks, st.CleanChunks, st.DedupHits, st.RawChunks, st.BytesWritten)
	}
	if local, ok := opt.Backend.(*storage.Local); ok { // on a disk, a small save costs its syncs
		file, dir := local.Syncs()
		fmt.Fprintf(out, "store: %d file sync(s), %d directory sync(s)\n", file, dir)
	}
	if client != nil {
		if st, serr := client.Stats(); serr == nil {
			fmt.Fprintf(out, "server: %d chunk upload(s) (%d dedup hit(s)), %d B offered, %d B written, %d manifest commit(s)\n",
				st.ChunksIngested, st.ChunkDedupHits, st.ChunkBytesOffered, st.ChunkBytesWritten, st.ManifestsCommitted)
		}
	}
	if *restorers > 0 {
		return gangDrill(out, *restorers, res.store, *remoteURL, ropts)
	}
	return nil
}

// runFleet runs n jobs of the job runner concurrently into one
// multi-tenant store, job<i> with seed+i, and prints per-job results plus
// the fleet-wide dedup accounting: replicas that agree on most of their
// state pay for it once. store is the -ckpt dir, or the server URL when
// svc, the local store, is nil.
func runFleet(out io.Writer, n int, seed uint64, job func(string, uint64, io.Writer) (jobResult, error),
	svc *core.Service, task, store string, resumed bool) error {
	results := make([]jobResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for j := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[j], errs[j] = job(fmt.Sprintf("job%02d", j), seed+uint64(j), io.Discard)
		}()
	}
	wg.Wait()

	fmt.Fprintf(out, "fleet: %d jobs, task=%s, store=%s\n", n, task, store)
	var agg core.Stats
	failed := 0
	for j, r := range results {
		id := fmt.Sprintf("job%02d", j)
		if errs[j] != nil {
			failed++
			fmt.Fprintf(out, "  %s  FAILED: %v\n", id, errs[j])
			continue
		}
		note := ""
		if resumed {
			note = fmt.Sprintf(" (resumed at step %d)", r.resumedAt)
		}
		fmt.Fprintf(out, "  %s  steps %d  best loss %.6f  ckpts %d  wrote %d B  wall %v%s\n",
			id, r.tr.Step(), r.tr.BestLoss(), r.tr.Checkpoints(), r.stats.BytesWritten,
			r.wall.Round(time.Millisecond), note)
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
		} else if client, err := remote.Dial(store, remote.Options{Tenant: "fleet-stats"}); err == nil {
			if st, serr := client.Stats(); serr == nil {
				resident = fmt.Sprintf("%d B written server-side (%d dedup hit(s) at the server)",
					st.ChunkBytesWritten, st.ChunkDedupHits)
			}
			client.Close()
		}
		fmt.Fprintf(out, "fleet chunk pipeline: %d snapshots, %d chunks (%d clean, %d dedup), %d B written, %s\n",
			agg.Snapshots, agg.Chunks, agg.CleanChunks, agg.DedupHits, agg.BytesWritten, resident)
	}
	fmt.Fprintf(out, "fleet done in %v\n", time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, n)
	}
	return nil
}

// gangDrill replays the T9 preemption-wave restore: n concurrent
// restorers each recover the newest checkpoint from store, the backend
// the job wrote (each over its own connection when the store is a qckpt
// server, so the server's single-flight origin cache absorbs the
// fan-out), and every recovered state must be bitwise-identical to a
// reference restore.
func gangDrill(out io.Writer, n int, store storage.Backend, remoteURL string, ropts core.RestoreOptions) error {
	load := func(tenant string) (*core.TrainingState, core.LoadReport, error) {
		b := store
		if remoteURL != "" {
			c, err := remote.Dial(remoteURL, remote.Options{Tenant: tenant})
			if err != nil {
				return nil, core.LoadReport{}, err
			}
			defer c.Close()
			b = c
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
	for j := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, rerr := load(fmt.Sprintf("restorer%03d", j))
			if rerr != nil {
				errs[j] = rerr
				return
			}
			if !got.Equal(ref) {
				errs[j] = fmt.Errorf("restorer %d: recovered state not bitwise-identical", j)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("gang-restore drill: %w", err)
		}
	}
	fmt.Fprintf(out, "gang-restore drill: %d restorers recovered step %d bitwise in %v\n",
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

// checkFlagLikeArgs refuses arguments that look like flags. flag.Parse
// stops at the first positional argument, so a flag typed after one
// ("train steps 40 -ckpt d") or a flag swallowed as another flag's value
// ("-ckpt -listen") arrives looking like a path — and acting on it would
// create a directory literally named "-listen".
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
