package genome

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// testAssembly builds a three-chromosome assembly named chr1..chr3.
func testAssembly(t *testing.T) *Assembly {
	t.Helper()
	var chroms []*Reference
	for i, l := range []int{20000, 15000, 10000} {
		ref := Generate(HumanLike(), l, 3+int64(i)*7919)
		ref.Name = fmt.Sprintf("chr%d", i+1)
		chroms = append(chroms, ref)
	}
	a, err := NewAssembly(chroms)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAssemblyConcatAndTranslate(t *testing.T) {
	t.Parallel()
	a := testAssembly(t)
	if a.Len() != 45000 {
		t.Fatalf("len = %d", a.Len())
	}
	cases := []struct {
		pos   int
		chrom string
		local int
	}{
		{0, "chr1", 0},
		{19999, "chr1", 19999},
		{20000, "chr2", 0},
		{34999, "chr2", 14999},
		{35000, "chr3", 0},
		{44999, "chr3", 9999},
	}
	for _, c := range cases {
		chrom, local, err := a.Translate(c.pos)
		if err != nil {
			t.Fatal(err)
		}
		if chrom != c.chrom || local != c.local {
			t.Errorf("Translate(%d) = %s:%d, want %s:%d", c.pos, chrom, local, c.chrom, c.local)
		}
	}
	if _, _, err := a.Translate(45000); err == nil {
		t.Error("out-of-range position accepted")
	}
	if _, _, err := a.Translate(-1); err == nil {
		t.Error("negative position accepted")
	}
	// Translation must agree with the chromosome's own bases.
	chrom, local, _ := a.Translate(20005)
	if a.Concat()[20005] != a.Chroms[1].Seq[local] || chrom != a.Chroms[1].Name {
		t.Error("translated base mismatch")
	}
}

func TestAssemblySpans(t *testing.T) {
	t.Parallel()
	a := testAssembly(t)
	if a.Spans(100, 201) {
		t.Error("in-chromosome interval flagged as spanning")
	}
	if !a.Spans(19950, 20050) {
		t.Error("boundary-crossing interval not flagged")
	}
	if !a.Spans(-1, 5) || !a.Spans(44990, 45001) || !a.Spans(10, 10) {
		t.Error("degenerate intervals must span")
	}
}

func TestAssemblyFASTARoundTrip(t *testing.T) {
	t.Parallel()
	a := testAssembly(t)
	var buf bytes.Buffer
	for _, c := range a.Chroms {
		if err := WriteFASTA(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Count(buf.String(), ">"); got != 3 {
		t.Fatalf("%d records", got)
	}
	b, err := ReadAssemblyFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Chroms) != 3 || !b.Concat().Equal(a.Concat()) {
		t.Error("assembly does not round trip")
	}
}

func TestAssemblyValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewAssembly(nil); err == nil {
		t.Error("empty assembly accepted")
	}
	r := Generate(HumanLike(), 100, 1)
	if _, err := NewAssembly([]*Reference{r, r}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := ReadAssemblyFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("headerless FASTA accepted")
	}
	if _, err := ReadAssemblyFASTA(strings.NewReader("")); err == nil {
		t.Error("empty FASTA accepted")
	}
}
