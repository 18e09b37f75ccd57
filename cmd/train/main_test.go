package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckFlagLikeArgs(t *testing.T) {
	cases := []struct {
		name        string
		positionals []string
		ckptDir     string
		wantErr     string
	}{
		{name: "clean", positionals: nil, ckptDir: "/tmp/ckpt"},
		{name: "flag after positional", positionals: []string{"steps", "-ckpt"}, wantErr: "-ckpt"},
		{name: "ckpt swallowed a flag", ckptDir: "-listen", wantErr: "-listen"},
		{name: "relative dirs fine", ckptDir: "./ckpt", positionals: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlagLikeArgs(tc.positionals, tc.ckptDir)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// runTrain runs the command in-process on a small chunked VQE job and
// returns its stdout.
func runTrain(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	base := []string{"-task", "vqe", "-qubits", "3", "-layers", "1", "-chunk", "8"}
	if err := run(append(base, args...), &out); err != nil {
		t.Fatalf("train %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// snapshots counts the snapshot files directly in dir.
func snapshots(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.qckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestSingleJobCheckpointsAtTheStoreRoot(t *testing.T) {
	dir := t.TempDir()
	out := runTrain(t, "-steps", "6", "-ckpt", dir, "-jobs", "1")
	if n := snapshots(t, dir); n != 6 {
		t.Errorf("%d snapshots at the store root, want 6", n)
	}
	if !exists(filepath.Join(dir, "chunks")) || exists(filepath.Join(dir, "jobs")) {
		t.Errorf("single job left no chunks/ or a jobs/ namespace in %s", dir)
	}
	if !strings.Contains(out, "done: best loss") || !strings.Contains(out, "chunk pipeline: 6 chunks") {
		t.Errorf("single-job summary missing:\n%s", out)
	}
	// Six manifests and six new chunks, each one file and one directory sync.
	if !strings.Contains(out, "store: 12 file sync(s), 12 directory sync(s)") {
		t.Errorf("sync count missing or wrong:\n%s", out)
	}
}

func TestFleetCheckpointsPerJobAndSharesChunks(t *testing.T) {
	dir := t.TempDir()
	out := runTrain(t, "-steps", "4", "-ckpt", dir, "-jobs", "3")
	for _, id := range []string{"job00", "job01", "job02"} {
		jobDir := filepath.Join(dir, "jobs", id)
		if n := snapshots(t, jobDir); n != 4 {
			t.Errorf("%s holds %d snapshots, want 4", id, n)
		}
		if exists(filepath.Join(jobDir, "chunks")) {
			t.Errorf("%s has a private chunk store; fleet chunks must be shared", id)
		}
		if !strings.Contains(out, "  "+id+"  steps 4 ") {
			t.Errorf("no result line for %s:\n%s", id, out)
		}
	}
	if n := snapshots(t, dir); n != 0 || !exists(filepath.Join(dir, "chunks")) {
		t.Errorf("store root holds %d snapshots (want 0) or lacks the shared chunks/", n)
	}
	if !strings.Contains(out, "fleet: 3 jobs") || !strings.Contains(out, "resident in the shared store") {
		t.Errorf("fleet summary missing:\n%s", out)
	}
}

// lastStepLine is the final progress line of a run: step, loss, QPU clock
// and shots.
func lastStepLine(out string) string {
	i := strings.LastIndex(out, "\nstep ")
	j := strings.Index(out[i+1:], "\n")
	return out[i+1 : i+1+j]
}

func TestResumeContinuesTheStepCount(t *testing.T) {
	dir := t.TempDir()
	runTrain(t, "-steps", "6", "-ckpt", dir)
	out := runTrain(t, "-steps", "9", "-ckpt", dir, "-resume")
	if !strings.Contains(out, "resumed ckpt-000000000005-delta.qckpt at step 6 (chain length 6)") {
		t.Errorf("resume did not report the newest snapshot:\n%s", out)
	}
	straight := runTrain(t, "-steps", "9")
	if got, want := lastStepLine(out), lastStepLine(straight); got != want {
		t.Errorf("resumed run ends at %q, an uninterrupted run at %q", got, want)
	}

	fleet := t.TempDir()
	runTrain(t, "-steps", "4", "-ckpt", fleet, "-jobs", "2")
	out = runTrain(t, "-steps", "6", "-ckpt", fleet, "-jobs", "2", "-resume")
	for _, id := range []string{"job00", "job01"} {
		if !strings.Contains(out, "  "+id+"  steps 6 ") || !strings.Contains(out, "(resumed at step 4)") {
			t.Errorf("%s did not resume at step 4 and reach step 6:\n%s", id, out)
		}
	}
}

// A tiered job demotes old chains below its hot directory. When the hot
// chain is corrupt, resume and the gang drill must fall back through the
// tiered store to the colder levels, not give up on the hot directory.
func TestTieredResumeFallsBackToColdLevels(t *testing.T) {
	dir := t.TempDir()
	tiered := []string{"-ckpt", dir, "-tiers", "nvme+object", "-keep-hot", "1"}
	runTrain(t, append([]string{"-steps", "40"}, tiered...)...)
	// Anchors land every 16 saves, so seq 32 anchors the only hot chain.
	anchor := filepath.Join(dir, "ckpt-000000000032-full.qckpt")
	data, err := os.ReadFile(anchor)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[len(data)/2:], []byte{0xff, 0xff, 0xff, 0xff})
	if err := os.WriteFile(anchor, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTrain(t, append([]string{"-steps", "42", "-resume", "-restorers", "2"}, tiered...)...)
	if !strings.Contains(out, "resumed ckpt-000000000031-delta.qckpt at step 32") {
		t.Errorf("resume did not fall back to the demoted chain:\n%s", out)
	}
	if !strings.Contains(out, "gang-restore drill: 2 restorers recovered step 42 bitwise") {
		t.Errorf("gang drill did not restore through the tiered store:\n%s", out)
	}
}

func TestFlagConflictsAreRefused(t *testing.T) {
	d := t.TempDir()
	cases := []struct {
		want string
		args []string
	}{
		{"-resume requires", []string{"-resume"}},
		{"-jobs requires", []string{"-jobs", "2"}},
		{"-jobs and -tiers", []string{"-jobs", "2", "-ckpt", d, "-tiers", "nvme+object"}},
		{"-jobs and -mtbf", []string{"-jobs", "2", "-ckpt", d, "-mtbf", "1h"}},
		{"-jobs and -restorers", []string{"-jobs", "2", "-ckpt", d, "-restorers", "2"}},
		{"-restorers requires", []string{"-restorers", "2"}},
		{"-quota/-rate", []string{"-quota", "2", "-ckpt", d}},
		{"-remote and -ckpt", []string{"-remote", "http://127.0.0.1:1", "-ckpt", d}},
		{"-remote and -tiers", []string{"-remote", "http://127.0.0.1:1", "-tiers", "nvme"}},
		{"-chunker cdc requires", []string{"-chunker", "cdc"}},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(append([]string{"-steps", "1"}, tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("train %v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}
