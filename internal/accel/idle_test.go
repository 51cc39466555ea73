package accel

import (
	"testing"

	"nvwa/internal/ckpt"
	"nvwa/internal/core"
	"nvwa/internal/fault"
)

// checkIdleCount fails t when the maintained idle-EU count differs from
// a scan of the unit states.
func checkIdleCount(t *testing.T, s *System, at string) {
	t.Helper()
	n := 0
	for _, u := range s.eus {
		if u.State() == core.Idle {
			n++
		}
	}
	if s.idleEUs != n {
		t.Fatalf("%s (cycle %d): maintained idle-EU count %d, scan finds %d", at, s.Now(), s.idleEUs, n)
	}
}

// stepChecked runs s to quiescence in StepUntil slices, checking the
// idle-EU count at every sync point and after the drain, and returns
// the report bytes and the checkpoint taken at every sync point.
func stepChecked(t *testing.T, s *System, slice int64) ([]byte, []*ckpt.Checkpoint) {
	t.Helper()
	checkIdleCount(t, s, "start")
	var cks []*ckpt.Checkpoint
	for at := s.Now() + slice; ; at += slice {
		done, err := s.StepUntil(at)
		if err != nil {
			t.Fatalf("StepUntil(%d): %v", at, err)
		}
		checkIdleCount(t, s, "sync point")
		ck, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		cks = append(cks, ck)
		if done {
			break
		}
	}
	rep, err := s.DrainChecked()
	if err != nil {
		t.Fatalf("DrainChecked: %v", err)
	}
	checkIdleCount(t, s, "drained")
	return reportBytes(t, rep), cks
}

// TestIdleEUCountMatchesScan pins the Allocate Trigger's maintained
// idle-EU count to a scan of the unit states at every sync point of a
// plain run, of a run whose fault plan kills EUs mid-run, and of that
// run resumed by Restore from a mid-run checkpoint. Each stepped run
// must also report exactly what its uninterrupted run does.
func TestIdleEUCountMatchesScan(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 300, 12)
	const slice = 150

	plain := NvWaOptions()
	ref, err := New(a, plain)
	if err != nil {
		t.Fatal(err)
	}
	refRep := ref.Run(reads)
	sys, err := New(a, plain)
	if err != nil {
		t.Fatal(err)
	}
	sys.Feed(reads)
	if got, _ := stepChecked(t, sys, slice); string(got) != string(reportBytes(t, refRep)) {
		t.Fatal("plain: stepped run diverges from the uninterrupted run")
	}

	// Kill a quarter of the pool in two waves, while most units are
	// busy, so both the idle-victim and the busy-victim paths run.
	faulted := NvWaOptions()
	var evs []fault.Event
	for u := 0; u < faulted.Config.TotalEUs(); u += 4 {
		cycle := refRep.Cycles / 4
		if u%8 == 4 {
			cycle = refRep.Cycles / 2
		}
		evs = append(evs, fault.Event{Kind: fault.EUFail, Cycle: cycle, Unit: u})
	}
	faulted.Faults = &fault.Plan{Events: evs}
	ref, err = New(a, faulted)
	if err != nil {
		t.Fatal(err)
	}
	fRep := ref.Run(reads)
	// A busy victim requeues exactly its one in-flight hit when that
	// extension completes (euDone is requeueHit's only caller) and is
	// then parked for good, while an idle victim is parked when its
	// fault arms and requeues nothing. So Requeued counts the busy
	// victims and the remaining failures are idle victims.
	f := fRep.Faults
	if f.EUFailures != len(evs) {
		t.Fatalf("fault plan killed %d EUs, want %d", f.EUFailures, len(evs))
	}
	if busy, idle := f.Requeued, f.EUFailures-f.Requeued; busy == 0 || idle <= 0 {
		t.Fatalf("fault plan must kill both busy and idle EUs: %d busy victims, %d idle victims", busy, idle)
	}
	want := reportBytes(t, fRep)
	sys, err = New(a, faulted)
	if err != nil {
		t.Fatal(err)
	}
	sys.Feed(reads)
	got, cks := stepChecked(t, sys, slice)
	if string(got) != string(want) {
		t.Fatal("faulted: stepped run diverges from the uninterrupted run")
	}

	ck := cks[len(cks)/2]
	if ck.Cycle <= refRep.Cycles/4 {
		t.Fatalf("mid-run checkpoint at cycle %d precedes the first kill wave", ck.Cycle)
	}
	resumed, err := Restore(a, faulted, reads, ck)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := stepChecked(t, resumed, slice); string(got) != string(want) {
		t.Fatal("resumed: run diverges from the uninterrupted run")
	}
}
