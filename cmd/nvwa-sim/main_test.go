package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"nvwa"
	"nvwa/internal/ckpt"
)

// runMainArg, as the first argument of the test binary, makes it run
// nvwa-sim's main on the remaining arguments instead of the tests, so
// a test can observe main's real exit code in a child process.
const runMainArg = "-run-nvwa-sim-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs nvwa-sim's main in a child process and returns its
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

// TestExitCodes pins the documented exit codes: 0 for a run that
// completes, 2 for an invalid invocation, 1 for a runtime failure. A Go
// panic also exits 2, so no case may print one.
func TestExitCodes(t *testing.T) {
	small := []string{"-reads", "50", "-reflen", "20000"}
	dir := t.TempDir()
	unwritable := filepath.Join(dir, "no-such-dir", "trace.json")

	// A checkpoint of this run with an impossible feed log, re-signed
	// by WriteCheckpoint so it passes every checksum.
	if code, out := runMain(t, append(small, "-checkpoint-every", "2000", "-checkpoint-dir", dir)...); code != 0 {
		t.Fatalf("checkpointed run: exit code %d; output:\n%s", code, out)
	}
	ck, err := nvwa.ReadCheckpoint(filepath.Join(dir, "ckpt-000000002000.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ck.FeedLog = []ckpt.FeedRec{{N: -1}, {N: 51}}
	badFeed := filepath.Join(dir, "bad-feed.ckpt")
	if err := nvwa.WriteCheckpoint(badFeed, ck); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"normal run", nil, 0},
		{"unknown alloc", []string{"-alloc", "bogus"}, 2},
		{"malformed faults", []string{"-faults", "garbage=="}, 2},
		{"zero shards", []string{"-shards", "0"}, 2},
		{"reference shorter than reads", []string{"-reflen", "50"}, 2},
		{"unwritable trace", []string{"-trace", unwritable}, 1},
		{"malformed feed log", []string{"-resume", badFeed}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runMain(t, append(append([]string(nil), small...), tc.args...)...)
			if code != tc.want || bytes.Contains(out, []byte("panic:")) {
				t.Fatalf("exit code %d, want %d without a panic; output:\n%s", code, tc.want, out)
			}
		})
	}
}
