package iloc

import (
	"fmt"
	"strings"
	"testing"
)

// TestLocalWords: fp used any other way (added, stored, returned,
// indexed, or a pointer from it offset again) adds no words; code that
// reaches further through such a pointer faults in the interpreter.
func TestLocalWords(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"none", "ldi r1, 5\n retr r1", 0},
		{"loadai", "loadai r1, fp, 16\n retr r1", 3},
		{"storeai", "ldi r1, 5\n storeai r1, fp, 8\n ret", 2},
		{"fstoreai", "fldi f1, 1.0\n fstoreai f1, fp, 24\n ret", 4},
		{"negative", "loadai r1, fp, -8\n retr r1", 0},
		{"addi", "addi r1, fp, 16\n ret", 3},
		{"subi", "subi r1, fp, 16\n ret", 3},
		{"plain load", "load r1, fp\n retr r1", 1},
		{"addi pointer", "addi r1, fp, 8\n loadai r2, r1, 16\n retr r2", 4},
		{"subi pointer", "subi r1, fp, 8\n loadai r2, r1, 32\n retr r2", 4},
		{"mov pointer", "mov r1, fp\n ldi r2, 5\n storeai r2, r1, 40\n ret", 6},
		{"pointer store", "addi r1, fp, 0\n fldi f1, 1.0\n fstore f1, r1\n ret", 1},
		{"use before def", "ldi r2, 0\n jmp b\nb:\n loadai r3, r1, 24\n addi r1, fp, 8\n add r2, r2, r3\n br gt r2, b, c\nc:\n ret", 5},
		{"largest offset", "addi r1, fp, 0\n addi r1, fp, 32\n loadai r2, r1, 0\n retr r2", 5},
		{"unaligned", "addi r1, fp, 4\n ldi r2, 7\n storeai r2, r1, 12\n ret", 3},
		{"fp added", "ldi r1, 8\n add r2, fp, r1\n retr r2", 0},
		{"fp returned", "loadai r1, fp, 8\n retr fp", 2},
		{"fp stored", "storeai fp, fp, 0\n ret", 1},
		{"fp indexed", "ldi r1, 8\n loadao r2, fp, r1\n retr r2", 0},
		{"pointer returned", "addi r1, fp, 8\n loadai r2, r1, 0\n retr r1", 2},
		{"pointer offset again", "addi r1, fp, 8\n addi r2, r1, 8\n loadai r3, r2, 0\n retr r3", 2},
		{"pointer as stored value", "addi r1, fp, 0\n storeai r1, r1, 0\n ret", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := MustParse("routine k()\nentry:\n " + tc.body + "\n")
			if got := rt.LocalWords(); got != tc.want {
				t.Errorf("LocalWords = %d, want %d\n%s", got, tc.want, Print(rt))
			}
		})
	}
}

// LocalWords allocates nothing for the pointers from fp it can keep on
// the stack, and stays linear in the code when there are many.
func TestLocalWordsAllocations(t *testing.T) {
	few := MustParse("routine k()\nentry:\n addi r1, fp, 8\n mov r2, fp\n loadai r3, r1, 0\n storeai r3, r2, 32\n ret\n")
	if n := testing.AllocsPerRun(100, func() { few.LocalWords() }); n != 0 {
		t.Errorf("LocalWords allocates %v times on two pointers", n)
	}
	var b strings.Builder
	b.WriteString("routine k()\nentry:\n")
	const n = 20000
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, " addi r%d, fp, %d\n", i, 8*(i%16))
	}
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, " loadai r%d, r%d, 8\n", n+i, i)
	}
	b.WriteString(" ret\n")
	if got := MustParse(b.String()).LocalWords(); got != 17 {
		t.Errorf("LocalWords = %d, want 17", got)
	}
}
