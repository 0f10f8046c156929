package iloc

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestInstrLayout pins the compact instruction: an 8-byte register and
// a 64-byte instruction with no field the garbage collector must scan.
// Labels and φ operands are indices into tables of the routine.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(Reg{}); n != 8 {
		t.Errorf("Reg is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(Instr{}); n > 64 {
		t.Errorf("Instr is %d bytes, want at most 64", n)
	}
	if path, ok := pointerField(reflect.TypeOf(Instr{}), "Instr"); ok {
		t.Errorf("Instr holds a pointer at %s", path)
	}
}

// pointerField returns the path of the first field of typ that holds a
// pointer, walking into arrays and structs.
func pointerField(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return path, true
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p, ok := pointerField(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
	}
	return "", false
}

// TestLargestRegisterRoundTrips parses the largest register number a
// Reg holds and prints it back unchanged.
func TestLargestRegisterRoundTrips(t *testing.T) {
	const src = "routine a(f2147483647)\nx:\n    ldi r2147483647, 1\n    retf f2147483647\n"
	rt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if d := rt.Blocks[0].Instrs[0].Dst; d.N != MaxRegNum {
		t.Fatalf("parsed r%d, want r%d", d.N, MaxRegNum)
	}
	if got := Print(rt); got != src {
		t.Fatalf("printed\n%s\nwant\n%s", got, src)
	}
}
