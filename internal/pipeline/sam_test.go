package pipeline

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nvwa/internal/genome"
)

func TestMapQ(t *testing.T) {
	if q := MapQ(101, 40, 1, 1); q != 60 {
		t.Errorf("unique strong hit MapQ = %d, want 60 (capped)", q)
	}
	if q := MapQ(101, 101, 2, 1); q != 0 {
		t.Errorf("tied hits MapQ = %d, want 0", q)
	}
	if q := MapQ(0, 0, 0, 1); q != 0 {
		t.Errorf("unaligned MapQ = %d", q)
	}
	if q := MapQ(50, 48, 12, 1); q != 0 {
		t.Errorf("small gap, many hits MapQ = %d, want 0", q)
	}
	if q := MapQ(101, -1, 1, 1); q <= 0 {
		t.Error("no second hit should give high MapQ")
	}
}

func TestSecondBest(t *testing.T) {
	b, s := SecondBest([]int{10, 50, 30})
	if b != 50 || s != 30 {
		t.Errorf("got %d,%d", b, s)
	}
	b, s = SecondBest([]int{42})
	if b != 42 || s != -1 {
		t.Errorf("single: %d,%d", b, s)
	}
	b, s = SecondBest(nil)
	if b != -1 || s != -1 {
		t.Errorf("empty: %d,%d", b, s)
	}
}

// samRecord is a read's record at res, placed on target rname the way
// nvwa-align places it: POS 1-based, reverse strand via Reverse.
func samRecord(r genome.Read, rname string, res Result, cigar string) SAMRecord {
	rec := SAMRecord{QName: r.Name, RName: "*", Cigar: "*", RNext: "*", Seq: r.Seq.String(), Qual: "*"}
	if len(r.Qual) == len(r.Seq) && len(r.Qual) > 0 {
		rec.Qual = string(r.Qual)
	}
	if !res.Found {
		rec.Flag = FlagUnmapped
		return rec
	}
	rec.RName, rec.Pos, rec.Cigar = rname, res.RefBeg+1, cigar
	if res.Rev {
		rec.Reverse(r.Seq)
	}
	return rec
}

func TestSAMWriterRoundTrip(t *testing.T) {
	a, ref := testAligner(t, 40000, 31)
	reads := genome.Simulate(ref, 30, genome.ShortReadConfig(32))
	var buf bytes.Buffer
	w, err := NewSAMWriterTargets(&buf, []SQ{{Name: ref.Name, Len: len(ref.Seq)}, {Name: "chrM", Len: 16569}})
	if err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for _, r := range reads {
		res := a.Align(r.ID, r.Seq)
		cigar := "*"
		if res.Found {
			if tb, err := a.Cigar(r.Seq, res); err == nil {
				cigar = tb.Cigar.String()
			}
			mapped++
		}
		if err := w.WriteRecord(samRecord(r, ref.Name, res, cigar)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantHeader := []string{
		"@HD\tVN:1.6\tSO:unknown",
		fmt.Sprintf("@SQ\tSN:%s\tLN:%d", ref.Name, len(ref.Seq)),
		"@SQ\tSN:chrM\tLN:16569",
		"@PG\tID:nvwa\tPN:nvwa-align",
	}
	if len(lines) != len(wantHeader)+len(reads) {
		t.Fatalf("%d lines, want %d", len(lines), len(wantHeader)+len(reads))
	}
	for i, h := range wantHeader {
		if lines[i] != h {
			t.Errorf("header line %d = %q, want %q", i, lines[i], h)
		}
	}
	for _, l := range lines[len(wantHeader):] {
		f := strings.Split(l, "\t")
		if len(f) != 11 {
			t.Fatalf("SAM record has %d fields: %s", len(f), l)
		}
	}
	if mapped < 25 {
		t.Errorf("only %d mapped", mapped)
	}
}

func TestSAMRecordUnmappedAndReverse(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewSAMWriterTargets(&buf, []SQ{{Name: "chr", Len: 1000}})
	u := genome.Read{Name: "u", Seq: []byte{0, 1, 2, 3}}
	if err := w.WriteRecord(samRecord(u, "chr", Result{}, "")); err != nil {
		t.Fatal(err)
	}
	rev := Result{Found: true, Rev: true, RefBeg: 9, RefEnd: 12, Score: 3}
	r := genome.Read{Name: "r", Seq: []byte{0, 0, 1}, Qual: []byte("ABC")}
	if err := w.WriteRecord(samRecord(r, "chr", rev, "3M")); err != nil {
		t.Fatal(err)
	}
	// Without qualities QUAL stays "*" on the reverse strand.
	if err := w.WriteRecord(samRecord(genome.Read{Name: "n", Seq: r.Seq}, "chr", rev, "3M")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")[3:]
	want := []string{
		"u\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\t*",
		"r\t16\tchr\t10\t0\t3M\t*\t0\t0\tGTT\tCBA",
		"n\t16\tchr\t10\t0\t3M\t*\t0\t0\tGTT\t*",
	}
	if len(lines) != len(want) {
		t.Fatalf("%d records, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, lines[i], want[i])
		}
	}
}
