package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"nvwa/internal/genome"
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
	fewer := filepath.Join(dir, "fewer.fq")
	empty := filepath.Join(dir, "empty.fa")
	writeTo(t, fa, func(f *os.File) error { return genome.WriteFASTA(f, ref) })
	writeTo(t, fq, func(f *os.File) error { return genome.WriteFASTQ(f, reads) })
	writeTo(t, fewer, func(f *os.File) error { return genome.WriteFASTQ(f, reads[:5]) })
	writeTo(t, empty, func(*os.File) error { return nil })

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
		{"mate count differs", []string{"-ref", fa, "-reads", fq, "-reads2", fewer}, 1},
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
