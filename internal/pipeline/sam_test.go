package pipeline

import (
	"bytes"
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

func TestSAMWriterRoundTrip(t *testing.T) {
	a, ref := testAligner(t, 40000, 31)
	reads := genome.Simulate(ref, 30, genome.ShortReadConfig(32))
	var buf bytes.Buffer
	w, err := NewSAMWriter(&buf, ref.Name, len(ref.Seq))
	if err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for _, r := range reads {
		res := a.Align(r.ID, r.Seq)
		cigar := ""
		if res.Found {
			if tb, err := a.Cigar(r.Seq, res); err == nil {
				cigar = tb.Cigar.String()
			}
			mapped++
		}
		if err := w.WritePaired(r.Name, r.Seq, r.Qual, res, Result{}, 0, 0, cigar); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "@HD") || !strings.HasPrefix(lines[1], "@SQ") {
		t.Fatalf("missing header:\n%s", lines[0])
	}
	if len(lines) != 3+len(reads) {
		t.Fatalf("%d lines, want %d", len(lines), 3+len(reads))
	}
	for _, l := range lines[3:] {
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
	w, _ := NewSAMWriter(&buf, "chr", 1000)
	read := genome.Read{Name: "u", Seq: []byte{0, 1, 2, 3}}
	if err := w.WritePaired(read.Name, read.Seq, nil, Result{}, Result{}, 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	rev := Result{Found: true, Rev: true, RefBeg: 9, RefEnd: 13, Score: 4}
	if err := w.WritePaired("r", read.Seq, []byte("IIII"), rev, Result{}, 0, 0, "4M"); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	u := strings.Split(lines[3], "\t")
	if u[1] != "4" || u[2] != "*" || u[3] != "0" {
		t.Errorf("unmapped record wrong: %v", u)
	}
	r := strings.Split(lines[4], "\t")
	if r[1] != "16" {
		t.Errorf("reverse flag wrong: %v", r[1])
	}
	if r[3] != "10" {
		t.Errorf("1-based pos wrong: %v", r[3])
	}
	// Sequence must be reverse-complemented: ACGT -> ACGT is its own
	// revcomp here; use a clearer read.
	var buf2 bytes.Buffer
	w2, _ := NewSAMWriter(&buf2, "chr", 1000)
	w2.WritePaired("r2", []byte{0, 0, 1}, []byte("ABC"), rev, Result{}, 0, 0, "3M")
	w2.Flush()
	f := strings.Split(strings.Split(strings.TrimSpace(buf2.String()), "\n")[3], "\t")
	if f[9] != "GTT" {
		t.Errorf("reverse seq = %s, want GTT", f[9])
	}
	if f[10] != "CBA" {
		t.Errorf("reverse qual = %s, want CBA", f[10])
	}
}

func TestWritePaired(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewSAMWriter(&buf, "chr", 10000)
	own := Result{Found: true, RefBeg: 100, RefEnd: 201, Score: 101}
	mate := Result{Found: true, Rev: true, RefBeg: 400, RefEnd: 501, Score: 99}
	flag := FlagPaired | FlagFirstInPair | FlagProperPair | FlagMateReverse
	if err := w.WritePaired("p/1", make([]byte, 101), nil, own, mate, flag, 401, "101M"); err != nil {
		t.Fatal(err)
	}
	// Unmapped end with mapped mate.
	if err := w.WritePaired("p/2", make([]byte, 101), nil, Result{}, own,
		FlagPaired|FlagSecondInPair|FlagMateUnmapped, 0, ""); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	f1 := strings.Split(lines[3], "\t")
	if f1[1] != "99" { // 1+64+2+32
		t.Errorf("flag = %s, want 99", f1[1])
	}
	if f1[6] != "=" || f1[7] != "401" || f1[8] != "401" {
		t.Errorf("mate fields = %v", f1[6:9])
	}
	f2 := strings.Split(lines[4], "\t")
	if f2[2] != "*" || f2[6] != "=" {
		t.Errorf("unmapped-with-mate fields wrong: %v", f2[:8])
	}
}
