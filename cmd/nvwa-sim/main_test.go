package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
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

// TestExitCodes pins the documented exit codes: 0 for a run that
// completes, 2 for an invalid invocation, 1 for a runtime failure.
func TestExitCodes(t *testing.T) {
	small := []string{"-reads", "50", "-reflen", "20000"}
	unwritable := filepath.Join(t.TempDir(), "no-such-dir", "trace.json")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"normal run", nil, 0},
		{"unknown alloc", []string{"-alloc", "bogus"}, 2},
		{"malformed faults", []string{"-faults", "garbage=="}, 2},
		{"zero shards", []string{"-shards", "0"}, 2},
		{"unwritable trace", []string{"-trace", unwritable}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{runMainArg}, small...)
			cmd := exec.Command(os.Args[0], append(args, tc.args...)...)
			out, err := cmd.CombinedOutput()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.want {
				t.Fatalf("exit code %d, want %d; output:\n%s", code, tc.want, out)
			}
		})
	}
}
