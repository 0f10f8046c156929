package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/remat"
	"repro/internal/suite"
)

// No pooled table holds a routine pointer past its length, and
// releaseScratch clears the SSA graphs, the only ones that hold any
// within it. After the suite's largest kernel and then a small routine
// ran on one scratch, so the small one's tables are short prefixes of
// what the kernel wrote, no table of the released scratch may still
// point into a routine anywhere up to its capacity.
func TestReleasedScratchHoldsNoRoutine(t *testing.T) {
	spec, err := corpus.ParseSpec("count=4,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machines.Lookup("x86-64")
	if err != nil {
		t.Fatal(err)
	}
	big, small := suite.ByName("twldrv").Routine(), corpus.Routines(units)[0]
	for _, spec := range []string{"remat", "chaitin"} {
		opts := Options{Machine: m, Strategy: spec}.withDefaults()
		strat, err := LookupStrategy(spec)
		if err != nil {
			t.Fatal(err)
		}
		sc := new(scratch)
		for _, rt := range []*iloc.Routine{big, small} {
			if _, err := newAllocator(context.Background(), rt, opts, strat.params, sc).run(); err != nil {
				t.Fatalf("%s, %s: %v", spec, rt.Name, err)
			}
		}
		var held []string
		routinePointers(reflect.ValueOf(sc).Elem(), "scratch", &held)
		if len(held) == 0 {
			t.Fatalf("%s: the scratch held no routine pointers before its release; the test checks nothing", spec)
		}
		if !releaseScratch(sc) {
			t.Fatalf("%s: the scratch (%d bytes) was not pooled", spec, sc.footprint())
		}
		held = held[:0]
		routinePointers(reflect.ValueOf(sc).Elem(), "scratch", &held)
		if len(held) > 0 {
			t.Fatalf("%s: the released scratch still points into a routine at %d places, first %s", spec, len(held), held[0])
		}
	}
}

// Tags and pending split copies are values: neither can hold a pointer
// into a routine, so the tables of them need no clearing.
func TestRoundValuesHoldNoRoutine(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(remat.Tag{}), reflect.TypeOf(pendingCopy{})} {
		if mayReachRoutine(typ) {
			t.Errorf("a %v can hold a routine pointer", typ)
		}
	}
}

// The pointer types through which a table can reach a routine.
var routineTypes = map[reflect.Type]bool{
	reflect.TypeOf((*iloc.Instr)(nil)):   true,
	reflect.TypeOf((*iloc.Block)(nil)):   true,
	reflect.TypeOf((*iloc.Routine)(nil)): true,
	reflect.TypeOf((*dom.Tree)(nil)):     true,
}

// routinePointers appends to found the path of every non-nil routine
// pointer in v, looking into struct fields, arrays, and slices up to
// their capacity, but not through pointers or maps.
func routinePointers(v reflect.Value, path string, found *[]string) {
	if !mayReachRoutine(v.Type()) {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			*found = append(*found, path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			routinePointers(v.Field(i), path+"."+v.Type().Field(i).Name, found)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			routinePointers(v.Index(i), fmt.Sprintf("%s[%d]", path, i), found)
		}
	case reflect.Slice:
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			routinePointers(full.Index(i), fmt.Sprintf("%s[%d]", path, i), found)
		}
	}
}

// mayReachRoutine reports whether a value of type t can hold a routine
// pointer without following a pointer or a map.
func mayReachRoutine(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer:
		return routineTypes[t]
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if mayReachRoutine(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array, reflect.Slice:
		return mayReachRoutine(t.Elem())
	}
	return false
}
