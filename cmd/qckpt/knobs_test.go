package main

import (
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/storage"
)

// knobCeiling is the option ratchet beside `make loc-gate`: the number of
// independently settable leaf fields in the stack's option structs. An
// option earns its field when two production callers or benchmark
// workloads give it different values; otherwise it is a constant. A PR
// that removes a field lowers the ceiling to its own count; one that must
// add a field raises it in its own diff, where a reviewer sees it.
const knobCeiling = 26

// leafFields counts t's fields recursively: a struct-typed field counts
// as its own leaves, anything else (scalars, interfaces, funcs, maps,
// slices, pointers) as one.
func leafFields(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		if ft := t.Field(i).Type; ft.Kind() == reflect.Struct {
			n += leafFields(ft)
		} else {
			n++
		}
	}
	return n
}

func TestOptionKnobsDoNotGrow(t *testing.T) {
	total := 0
	for _, opts := range []any{
		core.Options{}, core.RestoreOptions{}, core.ServiceOptions{},
		server.Options{}, api.LocalOptions{}, remote.Options{}, storage.ReplicatedOptions{},
	} {
		rt := reflect.TypeOf(opts)
		n := leafFields(rt)
		t.Logf("%-28s %d", rt.String(), n)
		total += n
	}
	if total > knobCeiling {
		t.Errorf("the option structs have %d leaf fields, ceiling %d: make the new knob a constant, or raise knobCeiling in this diff and say which two callers set it differently", total, knobCeiling)
	}
}
