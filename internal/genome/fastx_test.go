package genome

import (
	"bytes"
	"strings"
	"testing"
)

func TestFASTARoundTrip(t *testing.T) {
	t.Parallel()
	ref := Generate(HumanLike(), 500, 8)
	ref.Name = "chrTest"
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, ref); err != nil {
		t.Fatal(err)
	}
	asm, err := ReadAssemblyFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(asm.Chroms) != 1 {
		t.Fatalf("%d records", len(asm.Chroms))
	}
	got := asm.Chroms[0]
	if got.Name != "chrTest" {
		t.Errorf("name = %q", got.Name)
	}
	if !got.Seq.Equal(ref.Seq) {
		t.Error("sequence does not round trip")
	}
	// The header's description is dropped and wrapped lines join.
	asm, err = ReadAssemblyFASTA(strings.NewReader(">one desc\nACGT\nAC\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c := asm.Chroms[0]; c.Name != "one" || c.Seq.String() != "ACGTAC" {
		t.Errorf("got %q %q", c.Name, c.Seq.String())
	}
}

func TestFASTQRoundTrip(t *testing.T) {
	t.Parallel()
	ref := Generate(HumanLike(), 5000, 8)
	reads := Simulate(ref, 25, ShortReadConfig(3))
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, reads); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reads) {
		t.Fatalf("got %d reads, want %d", len(got), len(reads))
	}
	for i := range got {
		if got[i].Name != reads[i].Name {
			t.Errorf("read %d name %q != %q", i, got[i].Name, reads[i].Name)
		}
		if !got[i].Seq.Equal(reads[i].Seq) {
			t.Errorf("read %d sequence mismatch", i)
		}
		if string(got[i].Qual) != string(reads[i].Qual) {
			t.Errorf("read %d quality mismatch", i)
		}
	}
}

func TestWriteFASTQDefaultQual(t *testing.T) {
	t.Parallel()
	reads := []Read{{Name: "r", Seq: []byte{0, 1, 2, 3}}}
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, reads); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0].Qual) != "IIII" {
		t.Errorf("default quality = %q", got[0].Qual)
	}
}

func TestReadFASTQErrors(t *testing.T) {
	t.Parallel()
	cases := []string{
		"ACGT\n",                  // no @
		"@r\nACGT\n",              // truncated
		"@r\nACGT\n+\n",           // missing qual
		"@r\nACGT\n+\nIII\n",      // qual length mismatch
		"@r\nACGT\n+\nIIII\n@x\n", // second record truncated
	}
	for i, c := range cases {
		if _, err := ReadFASTQ(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
