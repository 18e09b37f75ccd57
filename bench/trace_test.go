package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestIntervalAlgebra(t *testing.T) {
	a := merge([]interval{{10, 20}, {0, 5}, {4, 8}, {20, 25}, {40, 50}})
	want := []interval{{0, 8}, {10, 25}, {40, 50}}
	if len(a) != len(want) {
		t.Fatalf("merge = %v, want %v", a, want)
	}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("merge = %v, want %v", a, want)
		}
	}
	if got := measure(a); got != 33 {
		t.Errorf("measure = %d, want 33", got)
	}
	b := merge([]interval{{2, 3}, {6, 12}, {24, 45}, {60, 70}})
	// a \ b = [0,2) [3,6) [12,24) [45,50) = 2+3+12+5
	if got := minus(a, b); got != 22 {
		t.Errorf("minus = %d, want 22", got)
	}
	if got := minus(a, nil); got != 33 {
		t.Errorf("minus nothing = %d, want 33", got)
	}
	if got := minus(a, a); got != 0 {
		t.Errorf("minus itself = %d, want 0", got)
	}
}

func TestAggregateSplitsByKindThenByTime(t *testing.T) {
	tr := newTracer()
	root, leaf, op := tr.intern(layerCoreSave), tr.intern(layerLocal), tr.intern("Put")
	save, restore := tr.mintOp(kindSave), tr.mintOp(kindRestore)
	tr.append(span{opID: save, layer: root, op: op, startNS: 100, endNS: 200})
	tr.append(span{opID: save, layer: leaf, op: op, startNS: 120, endNS: 150, bytes: 7})
	tr.append(span{opID: 0, layer: leaf, op: op, startNS: 160, endNS: 170})       // by time: save only
	tr.append(span{opID: restore, layer: leaf, op: op, startNS: 180, endNS: 190}) // by kind: restore
	tr.append(span{opID: save, layer: leaf, op: op, startNS: 10, endNS: 20})      // before the window: priming
	sa, ra := tr.aggregate(window{100, 300}, window{150, 400})
	if got := sa.get(layerLocal).spans; got != 2 {
		t.Errorf("save phase has %d leaf spans, want 2", got)
	}
	if got := ra.get(layerLocal).spans; got != 2 {
		t.Errorf("restore phase has %d leaf spans, want 2 (one by kind, one untagged in both windows)", got)
	}
	split := decompose(sa, layerCoreSave)
	if split[layerCoreSave] != 60 || split[layerLocal] != 40 {
		t.Errorf("decompose = %v, want core.save 60 + storage.local 40 of the root's 100", split)
	}
}

func TestSpanFileIsOneJSONObjectPerLine(t *testing.T) {
	tr := newTracer()
	tr.append(span{opID: 4, layer: tr.intern(layerServer), op: tr.intern("GET"), startNS: 5, endNS: 9, bytes: 11, err: true})
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("empty span file")
	}
	var got struct {
		ID      uint64 `json:"id"`
		OpID    uint64 `json:"op_id"`
		Layer   string `json:"layer"`
		Op      string `json:"op"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Bytes   int64  `json:"bytes"`
		Err     bool   `json:"err"`
	}
	dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", sc.Bytes(), err)
	}
	if got.ID != 1 || got.OpID != 4 || got.Layer != "server" || got.Op != "GET" ||
		got.StartNS != 5 || got.EndNS != 9 || got.Bytes != 11 || !got.Err {
		t.Errorf("span read back as %+v", got)
	}
}
