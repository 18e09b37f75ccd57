// Command experiments regenerates every table and figure of the paper's
// evaluation (DESIGN.md §5). Each experiment prints an aligned text table;
// EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	experiments                 # run everything at default scale
//	experiments -run F4         # run one experiment (T1..T12, F1..F6, A1, A2)
//	experiments -run T6,T9,T10  # run a comma-separated subset
//	experiments -quick          # reduced scale for smoke runs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
)

// experiment is one row of the evaluation: its id on the command line
// and how to produce its table at full or -quick scale.
type experiment struct {
	id  string
	run func(quick bool) (*harness.Table, error)
}

// pick is the scale switch: a at full scale, b under -quick.
func pick[T any](quick bool, a, b T) T {
	if quick {
		return b
	}
	return a
}

// render adapts a harness RunX/XTable pair: render(XTable)(RunX(…)).
func render[R any](table func([]R) *harness.Table) func([]R, error) (*harness.Table, error) {
	return func(rows []R, err error) (*harness.Table, error) {
		if err != nil {
			return nil, err
		}
		return table(rows), nil
	}
}

var experiments = []experiment{
	{"T1", func(q bool) (*harness.Table, error) {
		// The n=16 row already makes the exponential-statevector point;
		// training a 2^20-amplitude simulator for the table would take tens
		// of minutes for no additional information.
		shapes := pick(q, [][2]int{{4, 2}, {8, 2}, {8, 4}, {12, 4}, {16, 4}}, [][2]int{{4, 2}, {8, 2}, {12, 4}})
		return render(harness.T1Table)(harness.RunT1Inventory(shapes))
	}},
	{"T2", func(q bool) (*harness.Table, error) {
		return render(harness.T2Table)(harness.RunT2Strategies(pick(q, 50, 12)))
	}},
	{"T3", func(q bool) (*harness.Table, error) {
		return render(harness.T3Table)(harness.RunT3Backends(pick(q, 40, 10)))
	}},
	{"T4", func(q bool) (*harness.Table, error) {
		return render(harness.T4Table)(harness.RunT4Lifecycle(pick(q, 48, 16)))
	}},
	{"T5", func(q bool) (*harness.Table, error) {
		return render(harness.T5Table)(harness.RunT5Restore(pick(q, 24, 8)))
	}},
	{"T6", func(q bool) (*harness.Table, error) {
		return render(harness.T6Table)(harness.RunT6SavePath(pick(q, 16, 6)))
	}},
	{"T7", func(q bool) (*harness.Table, error) {
		return render(harness.T7Table)(harness.RunT7MultiJob(pick(q, []int{1, 4, 16}, []int{1, 4}), pick(q, 8, 4)))
	}},
	{"T8", func(q bool) (*harness.Table, error) {
		return render(harness.T8Table)(harness.RunT8Network(pick(q, []int{1, 4, 8}, []int{1, 4}), pick(q, 6, 4)))
	}},
	{"T9", func(q bool) (*harness.Table, error) {
		return render(harness.T9Table)(harness.RunT9GangRestore(pick(q, []int{1, 16, 100}, []int{1, 16}), pick(q, 6, 5)))
	}},
	{"T10", func(q bool) (*harness.Table, error) {
		return render(harness.T10Table)(harness.RunT10QoS(pick(q, 15, 5), pick(q, 24, 8)))
	}},
	{"T11", func(q bool) (*harness.Table, error) {
		return render(harness.T11Table)(harness.RunT11CDC(pick(q, 8, 4)))
	}},
	{"T12", func(q bool) (*harness.Table, error) {
		return render(harness.T12Table)(harness.RunT12Replication(pick(q, 4, 2), pick(q, 4, 2), pick(q, 6, 3)))
	}},
	{"F1", func(q bool) (*harness.Table, error) {
		mtbfs := []time.Duration{
			200 * time.Hour, 100 * time.Hour, 48 * time.Hour, 24 * time.Hour,
			12 * time.Hour, 6 * time.Hour, 3 * time.Hour,
		}
		return render(harness.F1Table)(harness.RunF1WastedWork(
			12*time.Hour, pick(q, mtbfs, mtbfs[2:]), 5*time.Second, time.Minute, pick(q, 2000, 200)))
	}},
	{"F2", func(q bool) (*harness.Table, error) {
		shapes := pick(q, [][2]int{{3, 1}, {4, 2}, {6, 2}, {8, 3}, {10, 4}, {12, 6}, {14, 8}}, [][2]int{{3, 1}, {6, 2}, {8, 3}})
		return render(harness.F2Table)(harness.RunF2Size(shapes))
	}},
	{"F3", func(q bool) (*harness.Table, error) {
		return render(harness.F3Table)(harness.RunF3Overhead(pick(q, 20, 6), pick(q, []int{1, 2, 5, 10}, []int{1, 3})))
	}},
	{"F4", func(q bool) (*harness.Table, error) {
		mtbfs := pick(q,
			[]time.Duration{4 * time.Hour, time.Hour, 15 * time.Minute, 4 * time.Minute, 2 * time.Minute},
			[]time.Duration{2 * time.Hour, 2 * time.Minute})
		return render(harness.F4Table)(harness.RunF4Goodput(pick(q, 10, 6), mtbfs))
	}},
	{"F5", func(q bool) (*harness.Table, error) {
		return render(harness.F5Table)(harness.RunF5Compression(pick(q, 60, 20), 2))
	}},
	{"F6", func(q bool) (*harness.Table, error) {
		return render(harness.F6Table)(harness.RunF6Divergence(pick(q, 30, 16)))
	}},
	{"A1", func(q bool) (*harness.Table, error) {
		return render(harness.A1Table)(harness.RunA1AnchorSweep(pick(q, 30, 12), pick(q, []int{1, 4, 8, 16, 30}, []int{1, 4, 12})))
	}},
	{"A2", func(q bool) (*harness.Table, error) {
		return render(harness.A2Table)(harness.RunA2Grouping(pick(q, 12, 5)))
	}},
}

func main() {
	runFlag := flag.String("run", "all", "experiments to run, comma-separated: all, T1..T12, F1..F6, A1, A2 (e.g. -run T6,T9,T10)")
	quick := flag.Bool("quick", false, "reduced scale (CI-friendly)")
	flag.Parse()

	want := make(map[string]bool)
	for _, id := range strings.Split(strings.ToUpper(*runFlag), ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	start := time.Now()
	ranAny := false
	for _, e := range experiments {
		if !want["ALL"] && !want[e.id] {
			continue
		}
		ranAny = true
		table, err := e.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(table)
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "unknown experiment(s) %q (want a comma-separated subset of: all, T1..T12, F1..F6, A1, A2)\n", *runFlag)
		os.Exit(2)
	}
	fmt.Printf("completed in %v\n", time.Since(start).Round(time.Millisecond))
}
