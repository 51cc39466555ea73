package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMainArg, as the first argument of the test binary, makes it run
// nvwa-genreads' main on the remaining arguments instead of the tests,
// so a test can observe main's real exit code in a child process.
const runMainArg = "-run-nvwa-genreads-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs nvwa-genreads' main in a child process and returns its
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

// TestExitCodes pins the exit codes: 0 for a run that writes both
// files, 2 for an invalid invocation, 1 for a runtime failure. A Go
// panic also exits 2, so no case may print one.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sim")
	unwritable := filepath.Join(dir, "no-such-dir", "sim")
	small := []string{"-reflen", "5000", "-reads", "20"}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"normal run", []string{"-out", out}, 0},
		{"missing -out", nil, 2},
		{"negative -reads", []string{"-out", out, "-reads", "-5"}, 2},
		{"negative -len", []string{"-out", out, "-len", "-1"}, 2},
		{"unknown profile", []string{"-out", out, "-profile", "mouse"}, 2},
		{"reference shorter than reads", []string{"-out", out, "-reflen", "50"}, 2},
		{"unwritable -out", []string{"-out", unwritable}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, output := runMain(t, append(append([]string(nil), small...), tc.args...)...)
			if code != tc.want || bytes.Contains(output, []byte("panic:")) {
				t.Fatalf("exit code %d, want %d without a panic; output:\n%s", code, tc.want, output)
			}
		})
	}
	for _, ext := range []string{".fa", ".fq"} {
		if fi, err := os.Stat(out + ext); err != nil || fi.Size() == 0 {
			t.Errorf("normal run left no %s file: %v", ext, err)
		}
	}
}
