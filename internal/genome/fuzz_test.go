package genome

import (
	"bytes"
	"strings"
	"testing"
)

func FuzzReadFASTQ(f *testing.F) {
	f.Add("@r1\nACGT\n+\nIIII\n")
	f.Add("@r1 desc\nacgtn\n+\n!!!!!\n@r2\nGG\n+\nII\n")
	f.Add("")
	f.Add("@\n\n+\n\n")
	f.Add("@r\nACGT\n+\nIII\n")
	f.Fuzz(func(t *testing.T, in string) {
		reads, err := ReadFASTQ(strings.NewReader(in))
		if err != nil {
			return
		}
		// Parsed reads must round-trip.
		var buf bytes.Buffer
		if err := WriteFASTQ(&buf, reads); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		again, err := ReadFASTQ(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(reads) {
			t.Fatalf("round trip changed count: %d -> %d", len(reads), len(again))
		}
		for i := range reads {
			if !again[i].Seq.Equal(reads[i].Seq) {
				t.Fatalf("read %d sequence changed", i)
			}
		}
	})
}

func FuzzReadAssemblyFASTA(f *testing.F) {
	f.Add(">a\nACGT\n>b\nGGTT\n")
	f.Add(">only\nACGTACGT\nACGT\n")
	f.Add("no header\n")
	f.Add(">dup\nAC\n>dup\nGT\n")
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ReadAssemblyFASTA(strings.NewReader(in))
		if err != nil {
			return
		}
		// Invariants: nonempty, offsets consistent, translation total.
		if len(a.Chroms) == 0 {
			t.Fatal("parser returned empty assembly without error")
		}
		total := 0
		for _, c := range a.Chroms {
			total += len(c.Seq)
		}
		if total != a.Len() {
			t.Fatalf("chromosome lengths sum %d != concat %d", total, a.Len())
		}
		starts := map[string]int{}
		off := 0
		for _, c := range a.Chroms {
			starts[c.Name] = off
			off += len(c.Seq)
		}
		for pos := 0; pos < a.Len(); pos += 1 + a.Len()/7 {
			name, local, err := a.Translate(pos)
			if err != nil {
				t.Fatalf("Translate(%d): %v", pos, err)
			}
			if starts[name]+local != pos {
				t.Fatalf("Translate(%d) = %s:%d, chromosome starts at %d", pos, name, local, starts[name])
			}
		}
	})
}
