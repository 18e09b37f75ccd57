// Package harness implements the paper's evaluation: one function per table
// or figure (T1, T2, F1–F6 in DESIGN.md §5), each returning structured rows
// that cmd/experiments renders as text tables and a shape test beside it
// asserts. Everything is deterministic given the seeds embedded in the
// experiment configurations.
package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/observable"
	"repro/internal/qpu"
	"repro/internal/train"
)

// vqeTrainConfig builds the standard VQE workload the experiments share:
// TFIM chain, hardware-efficient ansatz, Adam.
func vqeTrainConfig(qubits, layers int, shots int, seed uint64, qcfg qpu.Config) (train.Config, error) {
	h := observable.TFIM(qubits, 1.0, 0.7)
	task, err := train.NewVQETask(h)
	if err != nil {
		return train.Config{}, err
	}
	return train.Config{
		Circuit:       circuit.HardwareEfficient(qubits, layers),
		Task:          task,
		OptimizerName: "adam",
		LearningRate:  0.1,
		Shots:         shots,
		Seed:          seed,
		QPU:           qcfg,
	}, nil
}

// Table renders rows of cells as an aligned text table with a header.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Add appends a row; cells are stringified with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// humanBytes renders a byte count compactly.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
