package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"nvwa/internal/accel"
)

// The golden determinism suite is the contract the experiment engine
// ships under: for the same workload, (1) re-running an experiment
// serially reproduces the formatted output byte for byte, (2) the
// parallel runner's worker-pool fan-out reproduces the serial bytes
// and result structs exactly, and (3) every configuration, replayed
// over the Env's Memo, gives the Report of the live, memo-less
// accel.New(...).Run — the oracle. Wall-clock software-throughput
// measurement, the one legitimately nondeterministic input, is pinned
// through the Runner (see pinned).

const goldenRPS = 1e6

// pinned fixes r's software-pipeline throughput at goldenRPS, so the
// experiments that report it format deterministically.
func pinned(r *Runner) *Runner {
	r.swRPS = goldenRPS
	return r
}

// liveEnv returns env's workload without a Memo: every simulation on
// it fills each read's record live, as the oracle does.
func liveEnv(env *Env) *Env {
	e := &Env{Ref: env.Ref, Aligner: env.Aligner, Reads: env.Reads, Records: env.Records, Classes: env.Classes}
	e.memoOnce.Do(func() {})
	return e
}

// assertReplayEqualsLive checks the oracle for one configuration: the
// experiments' run path, which replays env's Memo, gives the Report of
// a live accel.New(...).Run built with no Memo.
func assertReplayEqualsLive(t *testing.T, env *Env, o accel.Options, what string) {
	t.Helper()
	sys, err := accel.New(env.Aligner, o)
	if err != nil {
		t.Fatal(err)
	}
	live := sys.Run(env.Reads)
	if replay := env.run(o); !reflect.DeepEqual(live, replay) {
		t.Fatalf("%s: replayed Report diverges from the live one (cycles %d, live %d)", what, replay.Cycles, live.Cycles)
	}
}

// goldenSeeds drives the table: the shared test env seed plus extra
// fresh-workload seeds that only run without -short.
func goldenSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{42}
	}
	return []int64{42, 7}
}

// goldenEnv returns the workload for a seed, reusing the shared test
// env for seed 42.
func goldenEnv(t *testing.T, seed int64) *Env {
	t.Helper()
	if seed == 42 {
		return getEnv(t)
	}
	return NewEnv(60000, 800, seed)
}

// assertSerialParallel is the golden check for one multi-config
// experiment: a second one-worker run and a four-worker run must give
// the first one-worker run's structs and formatted bytes. It returns
// that first result.
func assertSerialParallel[T any](t *testing.T, what string, run func(*Runner) T, format func(T) string) T {
	t.Helper()
	first := run(pinned(NewRunner(1)))
	again := run(pinned(NewRunner(1)))
	if format(first) != format(again) || !reflect.DeepEqual(first, again) {
		t.Fatalf("%s: serial run is not reproducible", what)
	}
	parallel := run(pinned(NewRunner(4)))
	if got, want := format(parallel), format(first); got != want {
		t.Fatalf("%s: parallel output diverges from serial\n--- serial ---\n%s--- parallel ---\n%s", what, want, got)
	}
	if !reflect.DeepEqual(first, parallel) {
		t.Fatalf("%s: parallel structs diverge from serial", what)
	}
	return first
}

func TestGoldenFig11SerialAndParallelIdentical(t *testing.T) {
	t.Parallel()
	for _, seed := range goldenSeeds(t) {
		env := goldenEnv(t, seed)
		assertSerialParallel(t, fmt.Sprintf("seed %d: Fig11", seed),
			func(r *Runner) Fig11Result { return Fig11With(env, r) }, Fig11Result.Format)
		for i, o := range fig11Configs(env) {
			assertReplayEqualsLive(t, env, o, fmt.Sprintf("seed %d: Fig11 config %d", seed, i))
		}
	}
}

func TestGoldenFig13aSerialAndParallelIdentical(t *testing.T) {
	t.Parallel()
	depths := []int{16, 64, 256, 1024}
	for _, seed := range goldenSeeds(t) {
		env := goldenEnv(t, seed)
		assertSerialParallel(t, fmt.Sprintf("seed %d: Fig13a", seed),
			func(r *Runner) []Fig13aRow { return Fig13aWith(env, depths, r) }, FormatFig13a)
		for _, d := range depths {
			o := env.NvWaOptions()
			o.Config.HitsBufferDepth = d
			assertReplayEqualsLive(t, env, o, fmt.Sprintf("seed %d: Fig13a depth %d", seed, d))
		}
	}
}

func TestGoldenFig13bSerialAndParallelIdentical(t *testing.T) {
	t.Parallel()
	counts := []int{1, 2, 4, 8}
	for _, seed := range goldenSeeds(t) {
		env := goldenEnv(t, seed)
		rows := assertSerialParallel(t, fmt.Sprintf("seed %d: Fig13b", seed),
			func(r *Runner) []Fig13bRow { return Fig13bWith(env, counts, r) }, FormatFig13b)
		if len(rows) != len(counts) {
			t.Fatalf("seed %d: Fig13b gave %d rows, want %d", seed, len(rows), len(counts))
		}
		for _, row := range rows {
			o := env.NvWaOptions()
			o.Config.EUClasses = compactClasses(row.Classes)
			assertReplayEqualsLive(t, env, o, fmt.Sprintf("seed %d: Fig13b %d intervals", seed, row.Intervals))
		}
	}
}

func TestGoldenFig14SerialAndParallelIdentical(t *testing.T) {
	t.Parallel()
	refLen, nReads := 30000, 120
	if testing.Short() {
		refLen, nReads = 20000, 80
	}
	for _, seed := range goldenSeeds(t) {
		ser := pinned(NewRunner(1))
		par := pinned(NewRunner(4))

		first := Fig14With(refLen, nReads, seed, ser)
		parallel := Fig14With(refLen, nReads, seed, par)
		if got, want := FormatFig14(parallel), FormatFig14(first); got != want {
			t.Fatalf("seed %d: parallel Fig14 output diverges from serial\n--- serial ---\n%s--- parallel ---\n%s", seed, want, got)
		}
		if !reflect.DeepEqual(first, parallel) {
			t.Fatalf("seed %d: parallel Fig14 rows diverge from serial", seed)
		}
		if testing.Short() {
			continue
		}
		// Fresh serial rerun (rebuilding every per-row Env) must also
		// reproduce the bytes: workload synthesis is seed-deterministic.
		again := Fig14With(refLen, nReads, seed, ser)
		if FormatFig14(again) != FormatFig14(first) {
			t.Fatalf("seed %d: serial Fig14 is not reproducible across env rebuilds", seed)
		}
	}
}

// TestGoldenReportEquivalence pins the Report-level contract inside the
// experiments layer: the same accel.Options built directly, with and
// without the env's memo, produce deeply equal Reports.
func TestGoldenReportEquivalence(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	run := func(o accel.Options) *accel.Report {
		sys, err := accel.New(env.Aligner, o)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(env.Reads)
	}
	o := env.NvWaOptions()
	direct := run(o)
	o.Memo = env.Memo()
	replay := run(o)
	if !reflect.DeepEqual(direct, replay) {
		t.Fatal("memo-replayed Report diverges from direct Report")
	}
	if direct.Cycles != replay.Cycles {
		t.Fatalf("cycle counts diverge: %d vs %d", direct.Cycles, replay.Cycles)
	}
}

// TestGoldenFrontEndsParallel covers the front-end experiment, whose
// minimizer row must bypass the FM-index memo rather than consume it.
func TestGoldenFrontEndsParallel(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	ser := pinned(NewRunner(1))
	par := pinned(NewRunner(2))
	first, err := FrontEndsWith(env, ser)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := FrontEndsWith(env, par)
	if err != nil {
		t.Fatal(err)
	}
	if FormatFrontEnds(first) != FormatFrontEnds(parallel) {
		t.Fatal("parallel front-end rows diverge from serial")
	}
	if !reflect.DeepEqual(first, parallel) {
		t.Fatal("front-end row structs diverge")
	}
	names, configs, err := frontEndConfigs(env)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range configs {
		assertReplayEqualsLive(t, env, o, names[i])
	}
}
