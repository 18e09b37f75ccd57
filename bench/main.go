// Command bench is the repo's benchmark (BENCHMARK.json): it drives the
// real checkpoint pipeline — core.Manager → storage stack → api → server
// ⇄ remote.Client — on seeded synthetic training-state streams, checks
// that every restore is bitwise, and prints the end-to-end metrics, or
// with -trace 1 the per-layer metrics from a run with span wrappers at
// every public layer boundary. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options is one invocation of one workload.
type options struct {
	w       workload
	seed    int64
	seconds float64 // measuring budget; repeats start while it lasts
	trace   bool
	sh      shape
	spans   string // span file of the last traced repeat ("" = none)
	// fallback holds the stores when /dev/shm is not a writable tmpfs.
	fallback string
}

// result is what a run measured, ready to print.
type result struct {
	opt       options
	store     string
	untraced  []*rep
	traced    []*rep
	e2e       map[string]value
	layers    map[string]value
	attempted int
	failures  []string
	warmupS   float64
	elapsedS  float64
}

// The warm-up repeat is short: with the priming save, one anchor chain.
// Its timings are discarded, but it is the repeat whose stores
// core.VerifyBackend checks: verification re-resolves every snapshot's
// whole chain, which on a measured repeat's stores would cost several
// times the repeat.
const (
	warmSaves    = 15
	warmRestores = 3
)

// run measures one workload: the warm-up repeat, then repeats on fresh
// stores for as long as the budget lasts (at least two). A traced run
// alternates untraced and traced repeats, so the tracing overhead and
// the wrapper-fidelity check come from one process.
func run(o options) (*result, error) {
	root, store, err := storeRoot(o.fallback)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	stop := removeOnSignal(root)
	defer stop()
	res := &result{opt: o, store: store}
	baseline := runtime.NumGoroutine()

	warm := o.w
	warm.saves, warm.restores = min(warmSaves, o.w.saves), min(warmRestores, o.w.restores)
	t0 := time.Now()
	warmed, err := runRepeat(warm, o.seed, o.sh, nil, root, true)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.warmupS = time.Since(t0).Seconds()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	t0 = time.Now()
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		if i >= 2 && !traced && time.Since(t0).Seconds() >= o.seconds {
			break
		}
		var t *tracer
		if traced {
			tr.reset()
			t = tr
		}
		r, err := runRepeat(o.w, o.seed, o.sh, t, root, false)
		if err != nil {
			return nil, fmt.Errorf("repeat %d: %w", i, err)
		}
		if traced {
			r.saveAgg, r.restAgg = tr.aggregate(r.saveWin, r.restWin)
			r.spans = len(tr.spans)
			res.traced = append(res.traced, r)
		} else {
			res.untraced = append(res.untraced, r)
		}
	}
	res.elapsedS = time.Since(t0).Seconds()
	if o.trace && o.spans != "" {
		if err := tr.writeJSONL(o.spans); err != nil {
			return nil, fmt.Errorf("write span file: %w", err)
		}
	}

	for _, r := range append(append([]*rep{warmed}, res.untraced...), res.traced...) {
		res.attempted += r.attempted
		res.failures = append(res.failures, r.failures...)
	}
	// Leak canary: every client, server and manager is closed by now, so
	// the goroutine count must come back to where it started. Connection
	// goroutines exit asynchronously after Close; give them a moment.
	goroutines := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); goroutines > baseline && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		goroutines = runtime.NumGoroutine()
	}
	res.attempted++
	if goroutines > baseline {
		res.failures = append(res.failures, fmt.Sprintf("goroutines_end %d above the baseline %d", goroutines, baseline))
	}

	res.e2e = endToEndValues(res.untraced)
	if o.trace {
		res.layerValues(goroutines)
	}
	return res, nil
}

// layerValues fills res.layers: span-derived and program counters from
// the traced repeats, allocator and memory numbers from the untraced
// ones (the wrappers allocate), the overhead from comparing the two.
func (res *result) layerValues(goroutines int) {
	res.layers = make(map[string]value, len(perLayer))
	each := make([]map[string]float64, len(res.traced))
	for i, r := range res.traced {
		each[i] = layerValuesOf(r)
	}
	for _, def := range perLayer {
		vs := make([]float64, len(each))
		for i, m := range each {
			vs[i] = m[def.Name]
		}
		lo, hi := minMax(vs)
		res.layers[def.Name] = value{v: median(vs), lo: lo, hi: hi, n: len(vs)}
	}
	res.layers["core.save.allocs_per_save"] = overReps(res.untraced, func(r *rep) float64 {
		return ratio(float64(r.mallocs), float64(r.saves))
	})
	res.layers["proc.heap_alloc_mib_per_save"] = overReps(res.untraced, func(r *rep) float64 {
		return ratio(float64(r.heapAlloc)/mib, float64(r.saves))
	})
	res.layers["save_stall_p99_ms"] = res.e2e["save_stall_p99_ms"]
	res.layers["restore_wall_p90_ms"] = res.e2e["restore_wall_p90_ms"]
	res.layers["proc.gc_pause_ms"] = overReps(res.untraced, func(r *rep) float64 { return float64(r.gcPauseNS) / 1e6 })
	res.layers["proc.peak_rss_mib"] = value{v: peakRSSMiB(), n: 1}
	res.layers["proc.goroutines_end"] = value{v: float64(goroutines), n: 1}
	with := bestRep(res.traced, lower, func(r *rep) float64 { return median(r.stallsMS) })
	res.layers["trace.overhead_ratio"] = value{v: ratio(with.v, res.e2e["save_stall_p50_ms"].v), n: with.n}

	// Wrapper fidelity: a wrapper that changed the path taken would change
	// what the manager wrote. With one synchronous client these counts
	// repeat exactly, so any difference is the wrappers' doing.
	if strings.HasSuffix(res.opt.w.name, "_local") {
		u, t := res.untraced[0].mgr, res.traced[0].mgr
		res.attempted++
		if u.Chunks != t.Chunks || u.BytesWritten != t.BytesWritten {
			res.failures = append(res.failures, fmt.Sprintf(
				"traced run wrote %d chunks / %d B, untraced %d / %d: a wrapper changed the path",
				t.Chunks, t.BytesWritten, u.Chunks, u.BytesWritten))
		}
	}
}

// peakRSSMiB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// removeOnSignal deletes the store directory if the run is interrupted:
// it lives outside the checkout, where nobody would look for it.
func removeOnSignal(root string) (stop func()) {
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(root)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// line is the machine-readable result: the last line of standard output.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) line() line {
	defs, vals := endToEnd, res.e2e
	if res.opt.trace {
		defs, vals = perLayer, res.layers
	}
	l := line{
		Correct: len(res.failures) == 0, Attempted: res.attempted, Failed: len(res.failures),
		Metrics: make(map[string]measured, len(defs)),
	}
	for _, d := range defs {
		l.Metrics[d.Name] = measured{vals[d.Name].v, d.Unit}
	}
	return l
}

// print writes the human-readable report.
func (res *result) print(w io.Writer) {
	o := res.opt
	fmt.Fprintf(w, "workload %s  seed %d  budget %gs  trace %v  store %s  GOMAXPROCS %d\n",
		o.w.name, o.seed, o.seconds, o.trace, res.store, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  %s\n", o.w.why)
	fmt.Fprintf(w, "  repeats: %d untraced + %d traced in %.1fs after a %.1fs warm-up; per repeat %d timed saves per client\n",
		len(res.untraced), len(res.traced), res.elapsedS, res.warmupS, o.w.saves)
	host := overRepsHost(res.untraced)
	fmt.Fprintf(w, "  host: memmove %.2f GB/s  sha256 %.0f MiB/s  flate %.1f MiB/s  fsync_4k %.1f us  loopback_rtt %.1f us\n",
		host.MemmoveGBps, host.SHA256MiBps, host.FlateMiBps, host.Fsync4kUs, host.LoopbackRTTUs)

	row := func(d metricDef, v value) {
		bound := "-"
		if d.Bound > 0 {
			bound = strconv.FormatFloat(d.Bound, 'g', -1, 64)
		}
		fmt.Fprintf(w, "  %-42s %14.4f %-6s [%12.4f .. %12.4f]  n=%-6d bound %s\n", d.Name, v.v, d.Unit, v.lo, v.hi, v.n, bound)
		if v.note != "" {
			fmt.Fprintf(w, "      note: %s\n", v.note)
		}
	}
	fmt.Fprintln(w, "end-to-end (no bench wrapper in the stack; wall-clock metrics from the best repeat, tails pooled, the rest medians; range over repeats)")
	for _, d := range append(append([]metricDef(nil), endToEnd...), reportedOnly...) {
		row(d, res.e2e[d.Name])
	}
	if u := res.untraced; len(u) > 0 {
		r := u[0]
		fmt.Fprintf(w, "  write_amp terms: %d B reached the manager's backend / %d B of payload saved; space_amp terms: %d B resident / %d B per state\n",
			r.mgr.BytesWritten, r.savedPayloadBytes, r.residentBytes, r.payloadBytes)
	}
	if o.trace {
		fmt.Fprintln(w, "per-layer (traced repeats; medians over repeats)")
		for _, d := range perLayer {
			row(d, res.layers[d.Name])
		}
		if len(res.traced) > 0 {
			r := res.traced[len(res.traced)-1]
			printSplit(w, "save", decompose(r.saveAgg, layerCoreSave), r.saveAgg.get(layerCoreSave), r.saves)
			printSplit(w, "restore", decompose(r.restAgg, layerCoreRestore), r.restAgg.get(layerCoreRestore), r.restores)
		}
		if o.spans != "" {
			fmt.Fprintf(w, "  spans of the last traced repeat: %s\n", o.spans)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// printSplit shows that the layers' busy times add up to the time the
// root spans cover.
func printSplit(w io.Writer, phase string, split map[string]int64, root *layerAgg, ops int) {
	names := make([]string, 0, len(split))
	var sum int64
	for name, ns := range split {
		names = append(names, name)
		sum += ns
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  busy ms per %s, last traced repeat:", phase)
	for _, name := range names {
		fmt.Fprintf(w, "  %s %.3f", name, ratio(float64(split[name])/1e6, float64(ops)))
	}
	fmt.Fprintf(w, "  | sum %.3f, root spans cover %.3f\n",
		ratio(float64(sum)/1e6, float64(ops)), ratio(float64(measure(root.cover))/1e6, float64(ops)))
}

func overRepsHost(reps []*rep) hostCal {
	f := func(get func(hostCal) float64) float64 {
		return overReps(reps, func(r *rep) float64 { return get(r.host) }).v
	}
	return hostCal{
		MemmoveGBps:   f(func(h hostCal) float64 { return h.MemmoveGBps }),
		SHA256MiBps:   f(func(h hostCal) float64 { return h.SHA256MiBps }),
		FlateMiBps:    f(func(h hostCal) float64 { return h.FlateMiBps }),
		Fsync4kUs:     f(func(h hostCal) float64 { return h.Fsync4kUs }),
		LoopbackRTTUs: f(func(h hostCal) float64 { return h.LoopbackRTTUs }),
	}
}

func main() {
	name := flag.String("workload", "all", "substep_local, fullstep_local, substep_remote, mixed_remote, or all")
	seed := flag.Int64("seed", 1, "seed of the synthetic state streams")
	seconds := flag.Float64("seconds", 24, "measuring budget per workload")
	trace := flag.Int("trace", 0, "1: insert the span wrappers and report the per-layer metrics")
	spans := flag.String("spans", "", "span file of the last traced repeat (default .bench_out/<workload>-seed<seed>.spans.jsonl, - for none)")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	failed := false
	for _, w := range todo {
		o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, sh: fullShape, fallback: filepath.Join(".bench_out", "stores")}
		switch *spans {
		case "":
			o.spans = filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, *seed))
		case "-":
		default:
			o.spans = *spans
		}
		res, err := run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		res.print(os.Stdout)
		out, err := json.Marshal(res.line())
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("%s\n", out)
		failed = failed || len(res.failures) > 0
	}
	if failed {
		os.Exit(1)
	}
}
