package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nvwa/internal/genome"
	"nvwa/internal/seq"
)

// runMainArg, as the first argument of the test binary, makes it run
// nvwa-align's main on the remaining arguments instead of the tests, so
// a test can observe main's real exit code in a child process.
const runMainArg = "-run-nvwa-align-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs nvwa-align's main in a child process and returns its
// exit code and combined output.
func runMain(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMainArg}, args...)...)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), out
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, out
}

// writeTo creates path and fills it with write.
func writeTo(t *testing.T, path string, write func(*os.File) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExitCodes pins the exit codes: 0 for a run that aligns, 2 for an
// invalid invocation, 1 for a runtime failure (unreadable or malformed
// input). A Go panic also exits 2, so no case may print one.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	ref := genome.Generate(genome.HumanLike(), 5000, 3)
	reads := genome.Simulate(ref, 6, genome.ShortReadConfig(4))
	fa := filepath.Join(dir, "ref.fa")
	fq := filepath.Join(dir, "reads.fq")
	empty := filepath.Join(dir, "empty.fa")
	noBases := filepath.Join(dir, "no-bases.fa")
	writeTo(t, fa, func(f *os.File) error { return genome.WriteFASTA(f, ref) })
	writeTo(t, fq, func(f *os.File) error { return genome.WriteFASTQ(f, reads) })
	writeTo(t, empty, func(*os.File) error { return nil })
	writeTo(t, noBases, func(f *os.File) error { _, err := f.WriteString(">r\n\n"); return err })

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"tsv", []string{"-ref", fa, "-reads", fq}, 0},
		{"sam", []string{"-ref", fa, "-reads", fq, "-sam"}, 0},
		{"missing -ref", []string{"-reads", fq}, 2},
		{"missing -reads", []string{"-ref", fa}, 2},
		{"missing file", []string{"-ref", filepath.Join(dir, "no-such.fa"), "-reads", fq}, 1},
		{"fasta without records", []string{"-ref", empty, "-reads", fq}, 1},
		{"fasta without bases", []string{"-ref", noBases, "-reads", fq}, 1},
		{"retired -reads2", []string{"-ref", fa, "-reads", fq, "-reads2", fq}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runMain(t, tc.args...)
			if code != tc.want || bytes.Contains(out, []byte("panic:")) {
				t.Fatalf("exit code %d, want %d without a panic; output:\n%s", code, tc.want, out)
			}
			if code == 0 && !bytes.Contains(out, []byte("/6 reads against")) {
				t.Errorf("no alignment summary; output:\n%s", out)
			}
		})
	}
}

// TestSAMRecords pins the -sam records of a forward, a reverse-strand
// and an unmappable read: POS is 1-based, a reverse-strand record
// stores SEQ reverse-complemented and QUAL reversed with it (SAM spec
// §1.4), and an unmapped record keeps the read's own orientation.
func TestSAMRecords(t *testing.T) {
	dir := t.TempDir()
	ref := genome.Generate(genome.HumanLike(), 5000, 3)
	rng := rand.New(rand.NewSource(5))
	junk := make(seq.Seq, 101)
	for i := range junk {
		junk[i] = byte(rng.Intn(4))
	}
	qual := make([]byte, 101)
	for i := range qual {
		qual[i] = byte('!' + i%40)
	}
	reads := []genome.Read{
		{Name: "fwd", Seq: ref.Seq[1000:1101], Qual: qual},
		{Name: "rev", Seq: ref.Seq[3000:3101].RevComp(), Qual: qual},
		{Name: "junk", Seq: junk, Qual: qual},
	}
	fa := filepath.Join(dir, "ref.fa")
	fq := filepath.Join(dir, "reads.fq")
	writeTo(t, fa, func(f *os.File) error { return genome.WriteFASTA(f, ref) })
	writeTo(t, fq, func(f *os.File) error { return genome.WriteFASTQ(f, reads) })

	code, out := runMain(t, "-ref", fa, "-reads", fq, "-sam")
	if code != 0 {
		t.Fatalf("exit code %d; output:\n%s", code, out)
	}
	got := map[string][]string{}
	for _, l := range strings.Split(string(out), "\n") {
		if f := strings.Split(l, "\t"); len(f) == 11 && !strings.HasPrefix(l, "@") {
			got[f[0]] = f
		}
	}
	reversed := slices.Clone(qual)
	slices.Reverse(reversed)
	want := map[string][]string{
		// QNAME, FLAG, RNAME, POS, SEQ, QUAL
		"fwd":  {"0", ref.Name, "1001", ref.Seq[1000:1101].String(), string(qual)},
		"rev":  {"16", ref.Name, "3001", ref.Seq[3000:3101].String(), string(reversed)},
		"junk": {"4", "*", "0", junk.String(), string(qual)},
	}
	for name, w := range want {
		f, ok := got[name]
		if !ok {
			t.Errorf("no record for %s; output:\n%s", name, out)
			continue
		}
		if g := []string{f[1], f[2], f[3], f[9], f[10]}; !slices.Equal(g, w) {
			t.Errorf("%s: FLAG RNAME POS SEQ QUAL = %q, want %q", name, g, w)
		}
	}
}
