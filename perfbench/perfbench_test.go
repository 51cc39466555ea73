package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	slices.Sort(out)
	return out
}

// TestSmokeEveryWorkload runs every workload in both modes at smoke
// size, which reaches every check: the software ground truth, the
// sharded-vs-unsharded Results, the memo and restore siblings, and the
// traced probes. Each run must be correct and print exactly the
// metrics BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	bm := readBenchmark(t)
	if got, want := names(bm.Workloads, func(w struct{ Name string }) string { return w.Name }),
		names(workloads, func(w workload) string { return w.name }); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := run(config{w: w, seed: 1, trace: trace, smoke: true})
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%q", w.name, trace, res.correct, res.attempted, res.failed, res.checks)
			}
			want := bm.EndToEnd
			if trace {
				want = bm.PerLayer
			}
			var out bytes.Buffer
			if err := printResult(&out, w, res); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			got := make([]string, 0, len(last.Metrics))
			for name := range last.Metrics {
				got = append(got, name)
			}
			slices.Sort(got)
			if named := names(want, func(m struct{ Name string }) string { return m.Name }); !slices.Equal(got, named) {
				t.Errorf("%s trace=%v prints %v, BENCHMARK.json names %v", w.name, trace, got, named)
			}
		}
	}
}

func modelOutputs(res *result) map[string]float64 {
	out := map[string]float64{}
	for _, m := range res.model {
		out[m.name] = m.value
	}
	return out
}

// TestDeterminism: the same seed gives the same model outputs, and
// another seed changes the Report digest, so --seed reaches the
// generator.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := modelOutputs(run(config{w: w, seed: 1, smoke: true}))
		b := modelOutputs(run(config{w: w, seed: 1, smoke: true}))
		c := modelOutputs(run(config{w: w, seed: 2, smoke: true}))
		for _, k := range []string{"accel.cycles", "accel.hits", "model.report_digest"} {
			if a[k] != b[k] {
				t.Errorf("%s: %s differs between two runs of seed 1: %v, %v", w.name, k, a[k], b[k])
			}
		}
		if a["model.report_digest"] == c["model.report_digest"] {
			t.Errorf("%s: seeds 1 and 2 give the same Report digest", w.name)
		}
	}
}

// TestLayersTable: layers.json assigns every per-layer metric of
// BENCHMARK.json to exactly one row.
func TestLayersTable(t *testing.T) {
	bm := readBenchmark(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		Layers []struct{ Metrics []string }
	}
	if err := json.Unmarshal(b, &table); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range table.Layers {
		got = append(got, l.Metrics...)
	}
	slices.Sort(got)
	if want := names(bm.PerLayer, func(m struct{ Name string }) string { return m.Name }); !slices.Equal(got, want) {
		t.Errorf("layers.json rows cover %v, BENCHMARK.json per_layer is %v", got, want)
	}
}

// TestAtQuantile: each unit is timed at the quantile of its own runs,
// and a unit that never ran counts neither reads nor time.
func TestAtQuantile(t *testing.T) {
	reads := []int{1, 2, 7}
	xs := [][]float64{{10, 10, 10, 20}, {5, 5, 5, 10}, nil}
	for _, c := range []struct{ q, want float64 }{{0.9, 100}, {0.1, 200}} {
		if got, n := atQuantile(reads, xs, c.q); got != c.want || n != 8 {
			t.Errorf("atQuantile(%v) = %v, %d; want %v, 8", c.q, got, n, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
