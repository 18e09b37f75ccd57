package harness

import "testing"

func TestRunT6SavePath(t *testing.T) {
	rows, err := RunT6SavePath(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(t6Configs) {
		t.Fatalf("got %d rows, want %d", len(rows), len(t6Configs))
	}
	byName := map[string]T6Row{}
	for _, r := range rows {
		if !r.Bitwise {
			t.Errorf("%s: restore not bitwise-identical", r.Config)
		}
		byName[r.Config] = r
	}
	incr := byName["chunked-incremental"]
	mono := byName["mono-full"]
	// At <1% dirty bytes nearly every chunk must be recognized clean.
	if incr.CleanPct < 90 {
		t.Errorf("incremental clean rate %.1f%%, want ≥90%%", incr.CleanPct)
	}
	// Steady-state bytes, Table 6's acceptance bar: the monolithic path
	// rewrites the whole state every save, at least 10× the incremental
	// bill. The bytes are deterministic; 6 saves read about 20×.
	if mono.SteadyBytes < 10*incr.SteadyBytes {
		t.Errorf("monolithic wrote %d steady bytes, incremental %d — expected ≥10× gap",
			mono.SteadyBytes, incr.SteadyBytes)
	}
	// Timing is asserted loosely here (CI machines are noisy); `go run
	// ./cmd/experiments -run T6` prints the real stalls.
	if incr.MeanStall <= 0 || mono.MeanStall <= 0 {
		t.Errorf("non-positive stall times: incr %v mono %v", incr.MeanStall, mono.MeanStall)
	}
}
