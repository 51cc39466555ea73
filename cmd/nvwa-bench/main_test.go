package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// runMainArg, as the first argument of the test binary, makes it run
// nvwa-bench's main on the remaining arguments instead of the tests, so
// a test can observe main's real exit code in a child process.
const runMainArg = "-run-nvwa-bench-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExitCodes pins the documented exit codes: 0 for an experiment
// that completes, 2 for an invalid invocation. A Go panic also exits 2,
// so no case may print one.
func TestExitCodes(t *testing.T) {
	small := []string{"-exp", "fig12", "-reads", "50", "-reflen", "20000"}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"one small experiment", nil, 0},
		{"unknown experiment", []string{"-exp", "fig99"}, 2},
		{"zero chaos seeds", []string{"-chaos-seeds", "0"}, 2},
		{"reference shorter than reads", []string{"-reflen", "50"}, 2},
		{"negative reads", []string{"-reads", "-5"}, 2},
		{"zero reads", []string{"-exp", "fig11", "-reads", "0"}, 2},
		{"retired kernel harness", []string{"-kernels"}, 2},
		{"negative workers", []string{"-j", "-1"}, 2},
		{"retired -parallel", []string{"-parallel"}, 2},
		{"retired -json", []string{"-json", "x"}, 2},
		{"retired -scaleout-json", []string{"-scaleout-json", "x"}, 2},
		{"retired -scaleout-check", []string{"-scaleout-check"}, 2},
		{"retired -shards", []string{"-shards", "2"}, 2},
		{"retired -shard-policy", []string{"-shard-policy", "balanced"}, 2},
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
			if code != tc.want || bytes.Contains(out, []byte("panic:")) {
				t.Fatalf("exit code %d, want %d without a panic; output:\n%s", code, tc.want, out)
			}
		})
	}
}
