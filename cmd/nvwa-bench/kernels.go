package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"nvwa/internal/kernbench"
)

// kernelRow is one before/after kernel measurement: the retained
// reference implementation versus the optimized kernel, measured in
// the same process on the same data.
type kernelRow struct {
	Kernel         string  `json:"kernel"`
	Note           string  `json:"note"`
	BeforeNsOp     float64 `json:"before_ns_op"`
	AfterNsOp      float64 `json:"after_ns_op"`
	BeforeAllocsOp int64   `json:"before_allocs_op"`
	AfterAllocsOp  int64   `json:"after_allocs_op"`
	BeforeBytesOp  int64   `json:"before_bytes_op"`
	AfterBytesOp   int64   `json:"after_bytes_op"`
	Speedup        float64 `json:"speedup"`
}

// kernelFile is the BENCH_kernels.json schema.
type kernelFile struct {
	GeneratedAt string      `json:"generated_at"`
	Host        benchHost   `json:"host"`
	Rows        []kernelRow `json:"rows"`
}

// measureKernels runs the kernbench suite through testing.Benchmark.
// A non-empty filter restricts measurement to kernels whose id
// contains the substring, which keeps iteration on one kernel cheap.
func measureKernels(filter string) kernelFile {
	out := kernelFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        hostInfo(),
	}
	fmt.Printf("%-28s %12s %12s %8s %11s %10s\n",
		"kernel", "before(ns)", "after(ns)", "speedup", "allocs b/a", "bytes b/a")
	for _, c := range kernbench.Cases() {
		if filter != "" && !strings.Contains(c.Kernel, filter) {
			continue
		}
		before := testing.Benchmark(c.Before)
		after := testing.Benchmark(c.After)
		row := kernelRow{
			Kernel:         c.Kernel,
			Note:           c.Note,
			BeforeNsOp:     float64(before.T.Nanoseconds()) / float64(before.N),
			AfterNsOp:      float64(after.T.Nanoseconds()) / float64(after.N),
			BeforeAllocsOp: before.AllocsPerOp(),
			AfterAllocsOp:  after.AllocsPerOp(),
			BeforeBytesOp:  before.AllocedBytesPerOp(),
			AfterBytesOp:   after.AllocedBytesPerOp(),
		}
		if row.AfterNsOp > 0 {
			row.Speedup = row.BeforeNsOp / row.AfterNsOp
		}
		out.Rows = append(out.Rows, row)
		fmt.Printf("%-28s %12.0f %12.0f %7.2fx %5d/%-5d %5d/%-5d\n",
			row.Kernel, row.BeforeNsOp, row.AfterNsOp, row.Speedup,
			row.BeforeAllocsOp, row.AfterAllocsOp, row.BeforeBytesOp, row.AfterBytesOp)
	}
	return out
}

// runKernelBench measures the suite and writes BENCH_kernels.json.
// With a filter active only the matching kernels are measured and the
// baseline file is left untouched — a partial suite must never clobber
// the committed full baseline.
func runKernelBench(path, filter string) error {
	out := measureKernels(filter)
	if filter != "" {
		fmt.Fprintf(os.Stderr, "kernel filter %q active: measured %d kernel(s), baseline %s not written\n",
			filter, len(out.Rows), path)
		return nil
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d kernels)\n", path, len(out.Rows))
	return nil
}

// scheduleKernel is the row the absolute allocation gate applies to:
// its optimized side must stay strictly allocation-free per op
// (amortized: queue growth may round to zero but never to one); a
// single alloc/op there means the event loop's hot path regressed to
// heap traffic, regardless of what the baseline recorded.
const scheduleKernel = "sim.Schedule/1k-events"

// checkKernelBench measures the suite fresh and compares it against a
// committed baseline file. Absolute ns/op is machine-dependent, so the
// guardrail compares the machine-independent signals instead:
//
//   - allocs/op of the optimized kernel must not exceed the baseline's
//     (any new steady-state allocation is a regression),
//   - each kernel's before/after speedup, measured in the same run on
//     the same machine, must stay within tol of the baseline's (a
//     larger drop means the optimized kernel lost ground against the
//     reference implementation compiled from the same tree),
//   - the sim.Schedule row must measure 0 allocs/op on the optimized
//     side, absolutely.
//
// A non-empty filter restricts the check (and the disappeared-kernel
// scan) to matching kernels; the allocation gate is skipped when its
// row is filtered out.
func checkKernelBench(baselinePath string, tol float64, filter string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base kernelFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	baseRows := map[string]kernelRow{}
	for _, r := range base.Rows {
		baseRows[r.Kernel] = r
	}
	fresh := measureKernels(filter)
	var failures []string
	for _, r := range fresh.Rows {
		if r.Kernel == scheduleKernel && r.AfterAllocsOp > 0 {
			failures = append(failures, fmt.Sprintf(
				"%s: optimized kernel allocates %d/op, must be allocation-free",
				r.Kernel, r.AfterAllocsOp))
		}
		b, ok := baseRows[r.Kernel]
		if !ok {
			continue // new kernel: nothing to regress against
		}
		if r.AfterAllocsOp > b.AfterAllocsOp {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op regressed %d -> %d", r.Kernel, b.AfterAllocsOp, r.AfterAllocsOp))
		}
		if floor := b.Speedup * (1 - tol); r.Speedup < floor {
			failures = append(failures, fmt.Sprintf(
				"%s: speedup regressed %.2fx -> %.2fx (floor %.2fx at tol %.0f%%)",
				r.Kernel, b.Speedup, r.Speedup, floor, tol*100))
		}
	}
	for k := range baseRows {
		if filter != "" && !strings.Contains(k, filter) {
			continue
		}
		found := false
		for _, r := range fresh.Rows {
			if r.Kernel == k {
				found = true
				break
			}
		}
		if !found {
			failures = append(failures, fmt.Sprintf("%s: kernel disappeared from the suite", k))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "kernel perf regression:", f)
		}
		return fmt.Errorf("%d kernel perf regression(s) against %s", len(failures), baselinePath)
	}
	fmt.Fprintf(os.Stderr, "kernel perf check passed against %s (%d kernels, tol %.0f%%)\n",
		baselinePath, len(fresh.Rows), tol*100)
	return nil
}
