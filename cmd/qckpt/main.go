// Command qckpt inspects checkpoint directories and files produced by the
// checkpoint engine (internal/core), including chunked snapshots whose
// bodies live in the directory's content-addressed chunk store and tiered
// directories whose cold history was demoted down the level hierarchy.
//
// Usage:
//
//	qckpt [flags] ls <dir>         list snapshots (newest first)
//	qckpt [flags] verify <dir>     verify every snapshot including delta chains
//	qckpt show <file>              print one snapshot's header and state summary
//	qckpt [flags] latest <dir>     print the state the recovery path would restore
//	qckpt [flags] restore <dir>    restore through the parallel streaming engine
//	                               (-workers, -prefetch) and report the wall time
//	qckpt [flags] gc <dir>         collect orphaned chunks (bytes reclaimed);
//	                               keeps chunks referenced by ANY job of a
//	                               multi-tenant store
//	qckpt [flags] compact <dir>    rewrite the newest state as one full snapshot
//	                               and delete the rest
//	qckpt jobs <dir>               list a multi-tenant store's jobs (snapshot
//	                               counts, newest step per job)
//	qckpt [flags] serve <dir>      serve the store over the qckpt wire protocol
//	                               (-addr, -inflight, -lease, -cache); remote
//	                               trainers connect with `train -remote
//	                               http://host:port`; -cache MiB bounds the
//	                               single-flight origin read cache that keeps
//	                               gang-restores at ~1× cold reads
//	qckpt -levels ... tiers <dir>  per-level occupancy and modeled placement cost
//	qckpt -levels ... migrate <dir> demote anchor chains that left the hot set
//	qckpt -replicas N replicas <dir> replica health table of an R-way replicated
//	                               store (add -repair for an anti-entropy pass)
//	qckpt diff <fileA> <fileB>     compare two full snapshots' states
//
// Flags:
//
//	-job <id>                      scope ls/verify/latest/restore to one job of
//	                               a multi-tenant store (manifests under
//	                               jobs/<id>/, chunk reads hit the shared store)
//	-tier nvme|nfs|object          project directory reads through a modeled
//	                               storage tier and report the virtual I/O
//	                               cost the command would have paid there
//	-levels nvme,object            open <dir> as a tiered layout (hot level at
//	                               <dir>, colder levels under <dir>/.level-*),
//	                               each level wrapped in its device model
//	-keep N                        migrate: anchor chains kept hot (default 1)
//	-workers N                     restore: parallel chunk fetch+decompress
//	                               workers (0 = one per CPU, 1 = serial)
//	-prefetch N                    restore: chunks fetched ahead of the ordered
//	                               reassembly frontier (0 = 2×workers)
//	-replicas N                    open <dir> as an N-way replicated store with
//	                               one Local replica per <dir>/.replica-*; saves
//	                               commit at the write quorum and restores stay
//	                               available with up to N-W replicas down
//	-quorum W                      write quorum for -replicas (0 = majority);
//	                               the read quorum is chosen to overlap it
//	-repair                        replicas: push winning copies onto lagging
//	                               replicas (anti-entropy)
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

var (
	// tierName is the -tier flag: when set, directory commands read through
	// a latency-modeled tier and report the modeled cost afterwards.
	tierName string
	// levelsFlag is the -levels flag: comma-separated device names opening
	// the directory as a tiered layout.
	levelsFlag string
	// keepChains is the -keep flag for migrate.
	keepChains int
	// restoreWorkers and restorePrefetch are the -workers and -prefetch
	// flags for the restore subcommand.
	restoreWorkers  int
	restorePrefetch int
	// jobID is the -job flag: scope directory commands to one tenant of a
	// multi-tenant store.
	jobID string
	// serveAddr, maxInflight, leaseTTL and cacheMiB configure the serve
	// subcommand.
	serveAddr   string
	maxInflight int
	leaseTTL    time.Duration
	cacheMiB    int
	// quotaMiB, rateMiB, qosSpec and placeSpec configure serve's
	// per-tenant QoS and the store's class placement policy.
	quotaMiB  int
	rateMiB   int
	qosSpec   string
	placeSpec string
	// replicaCount and writeQuorum open the directory as an R-way
	// replicated store (dir/.replica-*); doRepair makes the replicas
	// subcommand run an anti-entropy pass.
	replicaCount int
	writeQuorum  int
	doRepair     bool
)

func main() {
	flag.StringVar(&tierName, "tier", "", "model directory reads against a device tier (nvme, nfs, object)")
	flag.StringVar(&levelsFlag, "levels", "", "open the directory as a tiered layout (comma-separated device names, hot first)")
	flag.IntVar(&keepChains, "keep", 1, "anchor chains kept on the hot level by migrate")
	flag.IntVar(&restoreWorkers, "workers", 0, "restore: parallel chunk workers (0 = one per CPU, 1 = serial)")
	flag.IntVar(&restorePrefetch, "prefetch", 0, "restore: chunks fetched ahead of the reassembly frontier (0 = 2×workers)")
	flag.StringVar(&jobID, "job", "", "scope the command to one job of a multi-tenant store (jobs/<id>/ manifests, shared chunks)")
	flag.StringVar(&serveAddr, "addr", "127.0.0.1:7723", "serve: listen address (use :0 for an ephemeral port, printed on stdout)")
	flag.IntVar(&maxInflight, "inflight", 0, "serve: max in-flight ingests per tenant (0 = default, negative disables admission control)")
	flag.DurationVar(&leaseTTL, "lease", 0, "serve: upload lease TTL protecting uncommitted chunks from GC (0 = default 5m)")
	flag.IntVar(&cacheMiB, "cache", 64, "serve: single-flight origin read cache budget in MiB (0 disables; gang-restores hit the store once per object)")
	flag.IntVar(&quotaMiB, "quota", 0, "serve: per-tenant byte quota in MiB (0 = unlimited; retention GC credits deleted history back)")
	flag.IntVar(&rateMiB, "rate", 0, "serve: per-tenant write rate limit in MiB/s (0 = unlimited)")
	flag.StringVar(&qosSpec, "qos", "", "serve: per-tenant QoS overrides, comma-separated tenant=quotaMiB:rateMiBs (e.g. noisy=256:4)")
	flag.StringVar(&placeSpec, "place", "", "serve: class placement policy over -levels, comma-separated class=level for manifest, anchor, delta, archive (e.g. delta=object,archive=object)")
	flag.IntVar(&replicaCount, "replicas", 0, "open the directory as an R-way replicated store (replicas under <dir>/.replica-*)")
	flag.IntVar(&writeQuorum, "quorum", 0, "write quorum for -replicas (0 = majority); reads use the overlapping quorum")
	flag.BoolVar(&doRepair, "repair", false, "replicas: run an anti-entropy pass pushing winning copies to lagging replicas")
	flag.Parse()
	if flag.NArg() < 2 {
		usage()
	}
	for _, a := range flag.Args() {
		// A path argument starting with "-" is almost always a flag typed
		// after the subcommand, which flag.Parse treats as positional —
		// acting on it would create directories literally named "-listen".
		if err := rejectFlagLikeArg(a); err != nil {
			fmt.Fprintf(os.Stderr, "qckpt: %v\n", err)
			os.Exit(2)
		}
	}
	cmd, arg := flag.Arg(0), flag.Arg(1)
	var err error
	switch cmd {
	case "ls":
		err = cmdLs(arg)
	case "verify":
		err = cmdVerify(arg)
	case "show":
		err = cmdShow(arg)
	case "latest":
		err = cmdLatest(arg)
	case "restore":
		err = cmdRestore(arg)
	case "gc":
		err = cmdGc(arg)
	case "compact":
		err = cmdCompact(arg)
	case "jobs":
		err = cmdJobs(arg)
	case "serve":
		err = cmdServe(arg)
	case "tiers":
		err = cmdTiers(arg)
	case "migrate":
		err = cmdMigrate(arg)
	case "replicas":
		err = cmdReplicas(arg)
	case "diff":
		if flag.NArg() < 3 {
			usage()
		}
		err = cmdDiff(arg, flag.Arg(2))
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qckpt %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qckpt [-job id] [-tier dev] [-levels devs] [-replicas n] [-quorum w] [-workers n] {ls|verify|latest|restore|gc|compact|jobs|tiers|migrate} <dir> | qckpt -replicas n [-quorum w] [-repair] replicas <dir> | qckpt [-addr a] [-replicas n] [-quorum w] [-inflight n] [-lease d] [-cache mib] [-quota mib] [-rate mibs] [-qos spec] [-place spec] serve <dir> | qckpt show <file> | qckpt diff <a> <b>")
	os.Exit(2)
}

// rejectFlagLikeArg refuses positional arguments that look like flags.
// Go's flag package stops parsing at the first positional, so in
// `qckpt serve store -listen :8080` the "-listen" arrives as a path —
// and the serve path would mkdir it verbatim.
func rejectFlagLikeArg(arg string) error {
	if strings.HasPrefix(arg, "-") {
		return fmt.Errorf("argument %q looks like a flag; flags must come before the subcommand (qckpt [flags] <cmd> <dir>)", arg)
	}
	return nil
}

// openDir opens a checkpoint directory as a storage backend — plain local
// files, a -tier device model, or a -levels tiered layout, optionally
// scoped to one -job of a multi-tenant store — plus a reporter that
// prints the modeled I/O the command paid.
func openDir(dir string) (storage.Backend, func(), error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, nil, err
	}
	if tierName != "" && levelsFlag != "" {
		return nil, nil, errors.New("-tier and -levels are mutually exclusive")
	}
	if writeQuorum != 0 && replicaCount == 0 {
		return nil, nil, errors.New("-quorum requires -replicas")
	}
	if replicaCount > 0 {
		if tierName != "" || levelsFlag != "" {
			return nil, nil, errors.New("-replicas is mutually exclusive with -tier and -levels")
		}
		rb, err := storage.NewReplicatedDir(dir, replicaCount, writeQuorum)
		if err != nil {
			return nil, nil, err
		}
		scoped, err := scopeJob(rb)
		if err != nil {
			return nil, nil, err
		}
		return scoped, func() { rb.Close() }, nil
	}
	if levelsFlag != "" {
		tb, err := storage.NewTieredDir(dir, strings.Split(levelsFlag, ","))
		if err != nil {
			return nil, nil, err
		}
		b, err := scopeJob(tb)
		if err != nil {
			return nil, nil, err
		}
		return b, func() { reportLevels(tb) }, nil
	}
	b, err := storage.NewLocal(dir)
	if err != nil {
		return nil, nil, err
	}
	if tierName == "" {
		scoped, err := scopeJob(b)
		if err != nil {
			return nil, nil, err
		}
		return scoped, func() {}, nil
	}
	dev, err := storage.DeviceByName(tierName)
	if err != nil {
		return nil, nil, err
	}
	t := storage.NewTier(b, dev)
	scoped, err := scopeJob(t)
	if err != nil {
		return nil, nil, err
	}
	return scoped, func() { reportTier(t) }, nil
}

// scopeJob narrows a store backend to the -job namespace when set.
func scopeJob(b storage.Backend) (storage.Backend, error) {
	if jobID == "" {
		return b, nil
	}
	return core.JobBackend(b, jobID)
}

// openTieredDir opens the directory as a tiered layout, requiring -levels.
// The tiers/migrate commands operate on the whole store, so -job does not
// apply.
func openTieredDir(dir string) (*storage.Tiered, error) {
	if levelsFlag == "" {
		return nil, errors.New("requires -levels (e.g. -levels nvme,object)")
	}
	if jobID != "" {
		return nil, errors.New("tiers/migrate are store-wide; drop -job")
	}
	b, _, err := openDir(dir)
	if err != nil {
		return nil, err
	}
	return b.(*storage.Tiered), nil
}

// reportTier prints the modeled I/O bill of a directory command.
func reportTier(t *storage.Tier) {
	st := t.Stats()
	fmt.Printf("modeled %s cost: %v (%d ops, %d B read)\n",
		t.Device().Name, st.Modeled.Round(time.Microsecond), st.Ops, st.BytesRead)
}

// reportLevels prints the modeled I/O bill per level of a tiered command.
func reportLevels(tb *storage.Tiered) {
	for i := 0; i < tb.Len(); i++ {
		if t, ok := tb.Level(i).Backend.(*storage.Tier); ok {
			if st := t.Stats(); st.Ops > 0 {
				fmt.Printf("modeled %s cost: %v (%d ops, %d B read)\n",
					t.Device().Name, st.Modeled.Round(time.Microsecond), st.Ops, st.BytesRead)
			}
		}
	}
}

func cmdLs(dir string) error {
	b, report, err := openDir(dir)
	if err != nil {
		return err
	}
	headers, skipped, err := core.ListSnapshotsBackend(b)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-8s %-14s %-16s %-16s\n", "SEQ", "STEP", "KIND", "PAYLOAD-HASH", "BASE-HASH")
	for _, h := range headers {
		base := "-"
		if h.Kind.Base() == core.KindDelta {
			base = fmt.Sprintf("%x", h.BaseHash[:8])
		}
		fmt.Printf("%-8d %-8d %-14s %-16x %-16s\n", h.Seq, h.Step, h.Kind, h.PayloadHash[:8], base)
	}
	for _, s := range skipped {
		fmt.Printf("unparseable: %s\n", s)
	}
	report()
	return nil
}

func cmdVerify(dir string) error {
	b, report, err := openDir(dir)
	if err != nil {
		return err
	}
	ok, problems, err := core.VerifyBackend(b)
	if err != nil {
		return err
	}
	fmt.Printf("%d snapshot(s) verified\n", ok)
	for _, p := range problems {
		fmt.Printf("BROKEN: %s\n", p)
	}
	report()
	if len(problems) > 0 {
		return fmt.Errorf("%d broken snapshot(s)", len(problems))
	}
	return nil
}

func cmdShow(path string) error {
	h, err := core.VerifyFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("kind:    %s\nseq:     %d\nstep:    %d\n", h.Kind, h.Seq, h.Step)
	fmt.Printf("payload: %x\n", h.PayloadHash[:16])
	fmt.Printf("identity: %s\n", h.Identity())
	if h.Kind.Chunked() {
		if _, manifest, err := core.ReadSnapshotFile(path); err == nil {
			if sum, err := core.SummarizeChunkManifest(manifest); err == nil {
				version := "v2 adaptive-framed"
				if sum.Chunker != "" {
					version = "v3 content-defined"
				}
				fmt.Printf("chunks:  %d (%d distinct, %s, %d body bytes)\n",
					sum.Chunks, sum.Distinct, version, sum.RawLen)
				if sum.Chunker != "" {
					fmt.Printf("chunker: %s (min %d, avg %d, max %d bytes)\n",
						sum.Chunker, sum.MinSize, sum.AvgSize, sum.MaxSize)
				}
			}
		}
	}
	if h.Kind.Base() == core.KindDelta {
		fmt.Printf("base:    %x\n", h.BaseHash[:16])
		fmt.Println("(delta snapshot: run `qckpt latest <dir>` to resolve its chain)")
		return nil
	}
	_, body, err := core.ReadSnapshotBody(path)
	if err != nil {
		return err
	}
	st, err := core.DecodePayload(body)
	if err != nil {
		return err
	}
	printState(st)
	return nil
}

// printLoadReport prints what a recovery skipped and where its time went
// (core.LoadCost: stage times as the caller waited for them, and the
// chunk, zero-piece, SHA-256 and conviction-walk counts behind them).
func printLoadReport(r core.LoadReport) {
	for _, s := range r.Skipped {
		fmt.Printf("skipped:  %s\n", s)
	}
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	fmt.Printf("stages:   index %v, fetch %v, apply %v, verify %v, decode %v\n",
		us(r.Index), us(r.Fetch), us(r.Apply), us(r.Verify), us(r.Decode))
	fmt.Printf("work:     %d chunk(s) fetched, %d zero piece(s) skipped, %d bytes hashed (files + the target's payload; chunks, anchor and links too on a conviction walk), %d conviction walk(s)\n",
		r.ChunksFetched, r.ZeroPiecesSkipped, r.BytesHashed, r.ConvictionWalks)
}

func cmdLatest(dir string) error {
	b, report, err := openDir(dir)
	if err != nil {
		return err
	}
	st, loadReport, err := core.LoadLatestBackendOptions(b, nil, core.RestoreOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("restored: %s (seq %d, chain length %d)\n", loadReport.Path, loadReport.Seq, loadReport.ChainLen)
	printLoadReport(loadReport)
	printState(st)
	report()
	return nil
}

// cmdRestore is cmdLatest through the parallel streaming restore engine:
// it restores the newest recoverable state with a worker pool sized by
// -workers (chunk fetch+decompress fan-out plus delta-chain prefetch) and
// reports the restore wall time next to the usual state summary.
func cmdRestore(dir string) error {
	b, report, err := openDir(dir)
	if err != nil {
		return err
	}
	opts := core.RestoreOptions{Workers: restoreWorkers, Prefetch: restorePrefetch}
	if restoreWorkers <= 0 {
		opts.Workers = core.DefaultRestoreOptions().Workers
	}
	start := time.Now()
	st, loadReport, err := core.LoadLatestBackendOptions(b, nil, opts)
	if err != nil {
		return err
	}
	fmt.Printf("restored: %s (seq %d, chain length %d) in %v with %d worker(s)\n",
		loadReport.Path, loadReport.Seq, loadReport.ChainLen,
		time.Since(start).Round(time.Microsecond), opts.Workers)
	printLoadReport(loadReport)
	printState(st)
	report()
	return nil
}

func cmdGc(dir string) error {
	// GC liveness spans every tenant: the keep-set must union all job
	// namespaces, so a job-scoped view would under-count references and
	// delete other tenants' chunks.
	if jobID != "" {
		return errors.New("gc is store-wide (chunks are shared across jobs); drop -job")
	}
	b, report, err := openDir(dir)
	if err != nil {
		return err
	}
	removed, reclaimed, err := core.CollectOrphanChunks(b)
	if err != nil {
		return err
	}
	fmt.Printf("collected %d orphan chunk(s), %d bytes reclaimed\n", removed, reclaimed)
	report()
	return nil
}

// cmdJobs lists the tenants of a multi-tenant store: snapshot count and
// newest step per job namespace.
func cmdJobs(dir string) error {
	if jobID != "" {
		return errors.New("jobs lists all tenants; drop -job")
	}
	b, report, err := openDir(dir)
	if err != nil {
		return err
	}
	svc, err := core.NewService(core.ServiceOptions{Backend: b})
	if err != nil {
		return err
	}
	ids, err := svc.Jobs()
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-10s %-10s %-10s\n", "JOB", "SNAPSHOTS", "NEWEST-SEQ", "NEWEST-STEP")
	for _, id := range ids {
		view, err := svc.JobView(id)
		if err != nil {
			return err
		}
		headers, _, err := core.ListSnapshotsBackend(view)
		if err != nil {
			return err
		}
		if len(headers) == 0 {
			fmt.Printf("%-16s %-10d %-10s %-10s\n", id, 0, "-", "-")
			continue
		}
		fmt.Printf("%-16s %-10d %-10d %-10d\n", id, len(headers), headers[0].Seq, headers[0].Step)
	}
	if len(ids) == 0 {
		fmt.Println("(no job namespaces; single-tenant store?)")
	}
	report()
	return nil
}

func cmdCompact(dir string) error {
	// Compact's trailing orphan collection computes liveness from the
	// backend it is handed; a job-scoped view would hide the other
	// tenants' references.
	if jobID != "" {
		return errors.New("compact is store-wide; drop -job")
	}
	b, report, err := openDir(dir)
	if err != nil {
		return err
	}
	key, removed, err := core.CompactBackend(b, true)
	if err != nil {
		return err
	}
	fmt.Printf("compacted to %s (%d old files removed)\n", key, removed)
	report()
	return nil
}

func cmdTiers(dir string) error {
	tb, err := openTieredDir(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-10s %-10s %-12s %-12s %-14s\n",
		"LEVEL", "MANIFESTS", "CHUNKS", "BYTES", "SHARE", "MODELED-WRITE")
	type levelRow struct {
		name              string
		manifests, chunks int
		bytes             int64
		modeled           time.Duration
	}
	var rows []levelRow
	var total int64
	for i := 0; i < tb.Len(); i++ {
		lv := tb.Level(i)
		keys, err := lv.Backend.List("")
		if err != nil {
			return err
		}
		row := levelRow{name: lv.Name}
		for _, k := range keys {
			info, err := lv.Backend.Stat(k)
			if err != nil {
				continue
			}
			if strings.HasPrefix(k, core.ChunkPrefix+"/") {
				row.chunks++
			} else {
				row.manifests++
			}
			row.bytes += info.Size
		}
		if t, ok := lv.Backend.(*storage.Tier); ok && row.bytes > 0 {
			// The modeled bill to place this level's resident bytes.
			row.modeled = t.Device().WriteCost(int(row.bytes))
		}
		total += row.bytes
		rows = append(rows, row)
	}
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.bytes) / float64(total)
		}
		fmt.Printf("%-10s %-10d %-10d %-12d %-12s %-14v\n",
			r.name, r.manifests, r.chunks, r.bytes,
			fmt.Sprintf("%.1f%%", share), r.modeled.Round(time.Microsecond))
	}
	return nil
}

func cmdMigrate(dir string) error {
	tb, err := openTieredDir(dir)
	if err != nil {
		return err
	}
	if keepChains < 1 {
		return fmt.Errorf("-keep must be ≥ 1 (got %d)", keepChains)
	}
	rep, err := core.Migrate(tb, core.LifecyclePolicy{KeepHotChains: keepChains})
	if err != nil {
		return err
	}
	fmt.Printf("demoted %d chain(s) to level %s: %d manifest(s), %d chunk(s), %d bytes moved\n",
		rep.Chains, rep.Level, rep.Manifests, rep.Chunks, rep.Bytes)
	reportLevels(tb)
	return nil
}

// cmdReplicas prints the replicated store's quorum geometry and a
// per-replica health table; -repair additionally runs an anti-entropy
// pass and reports what it pushed.
func cmdReplicas(dir string) error {
	if replicaCount < 1 {
		return errors.New("requires -replicas (e.g. -replicas 3)")
	}
	if jobID != "" {
		return errors.New("replicas is store-wide; drop -job")
	}
	rb, err := storage.NewReplicatedDir(dir, replicaCount, writeQuorum)
	if err != nil {
		return err
	}
	defer rb.Close()
	info := rb.ReplicationInfo()
	fmt.Printf("%s: %d replicas, write quorum %d, read quorum %d\n",
		rb.Name(), info.Replicas, info.WriteQuorum, info.ReadQuorum)
	fmt.Printf("%-8s %-12s %-24s %-6s %-10s %-13s %s\n",
		"REPLICA", "DOMAIN", "BACKEND", "UP", "FAILURES", "NEEDS-REPAIR", "LAST-ERROR")
	for _, st := range rb.Health() {
		fmt.Printf("%-8d %-12s %-24s %-6v %-10d %-13v %s\n",
			st.Index, st.Domain, st.Name, st.Up, st.Failures, st.NeedsRepair, st.LastError)
	}
	if doRepair {
		st, err := rb.Repair()
		if err != nil {
			return err
		}
		fmt.Printf("repair: %d key(s) scanned, %d cop%s pushed (%d bytes), %d error(s)\n",
			st.Keys, st.Pushed, plural(st.Pushed, "y", "ies"), st.PushedBytes, st.Errors)
	}
	return nil
}

// plural picks the singular or plural suffix for n.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// loadStateFromFile resolves a snapshot file to its TrainingState. Delta
// snapshots are resolved through their directory's chain.
func loadStateFromFile(path string) (*core.TrainingState, error) {
	h, body, err := core.ReadSnapshotBody(path)
	if err != nil {
		return nil, err
	}
	if h.Kind.Base() == core.KindFull {
		return core.DecodePayload(body)
	}
	return nil, fmt.Errorf("%s is a delta snapshot; diff full snapshots or run compact first", path)
}

func cmdDiff(pathA, pathB string) error {
	a, err := loadStateFromFile(pathA)
	if err != nil {
		return err
	}
	b, err := loadStateFromFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("step:  %d -> %d\n", a.Step, b.Step)
	fmt.Printf("epoch: %d -> %d\n", a.Epoch, b.Epoch)
	if len(a.Params) != len(b.Params) {
		fmt.Printf("params: LENGTH CHANGED %d -> %d\n", len(a.Params), len(b.Params))
	} else {
		changed, maxAbs := 0, 0.0
		for i := range a.Params {
			if a.Params[i] != b.Params[i] {
				changed++
				if d := math.Abs(a.Params[i] - b.Params[i]); d > maxAbs {
					maxAbs = d
				}
			}
		}
		fmt.Printf("params: %d/%d changed, max |Δ| = %.6g\n", changed, len(a.Params), maxAbs)
	}
	fmt.Printf("optimizer blob: %d -> %d bytes (%s)\n", len(a.Optimizer), len(b.Optimizer), sameOrDiff(a.Optimizer, b.Optimizer))
	fmt.Printf("rng blob:       %s\n", sameOrDiff(a.RNG, b.RNG))
	fmt.Printf("grad accum:     %d -> %d bytes\n", len(a.GradAccum), len(b.GradAccum))
	fmt.Printf("loss history:   %d -> %d entries\n", len(a.LossHistory), len(b.LossHistory))
	fmt.Printf("qpu clock:      %v -> %v\n",
		time.Duration(a.Counters.QPUClockNS), time.Duration(b.Counters.QPUClockNS))
	fmt.Printf("total shots:    %d -> %d\n", a.Counters.TotalShots, b.Counters.TotalShots)
	if a.Meta != b.Meta {
		fmt.Println("metadata:       DIFFERS (snapshots from different runs?)")
	} else {
		fmt.Println("metadata:       identical")
	}
	return nil
}

func sameOrDiff(a, b []byte) string {
	if string(a) == string(b) {
		return "identical"
	}
	return "differs"
}

func printState(st *core.TrainingState) {
	br := st.Breakdown()
	fmt.Printf("step:         %d (epoch %d)\n", st.Step, st.Epoch)
	fmt.Printf("params:       %d (%d B)\n", len(st.Params), br.Params)
	fmt.Printf("optimizer:    %s (%d B)\n", st.Meta.OptimizerName, br.Optimizer)
	fmt.Printf("rng:          %d B\n", br.RNG)
	if len(st.GradAccum) > 0 {
		fmt.Printf("grad-accum:   %d B (mid-step snapshot)\n", br.GradAccum)
	}
	fmt.Printf("loss history: %d entries", len(st.LossHistory))
	if len(st.LossHistory) > 0 {
		fmt.Printf(", last %.6g", st.LossHistory[len(st.LossHistory)-1])
	}
	fmt.Println()
	fmt.Printf("best loss:    %.6g\n", st.BestLoss)
	fmt.Printf("qpu clock:    %v\n", time.Duration(st.Counters.QPUClockNS))
	fmt.Printf("total shots:  %d (wasted %d, jobs %d, preemptions %d)\n",
		st.Counters.TotalShots, st.Counters.WastedShots, st.Counters.Jobs, st.Counters.Preemptions)
	fmt.Printf("circuit fp:   %.16s…\n", st.Meta.CircuitFP)
	fmt.Printf("problem fp:   %.40s…\n", st.Meta.ProblemFP)
	fmt.Printf("hyperparams:  %s\n", st.Meta.Extra)
}
