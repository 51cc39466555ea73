package accel

import (
	"testing"

	"nvwa/internal/core"
)

func TestUnifiedInterfaceStates(t *testing.T) {
	t.Parallel()
	a, _ := testWorkload(t, 1, 51)
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Exercise the Table III control signals: state, stop, pe_number.
	s := sys.sus[0]
	if s.State() != core.Idle {
		t.Errorf("fresh SU state = %v", s.State())
	}
	e := sys.eus[0]
	if e.State() != core.Idle {
		t.Errorf("fresh EU state = %v", e.State())
	}
	if e.PEs() <= 0 {
		t.Error("pe_number signal missing")
	}
	s.Stop()
	e.Stop()
	if s.State() != core.Stopped || e.State() != core.Stopped {
		t.Error("stop signal not honoured")
	}
}

func TestEUPoolMatchesConfig(t *testing.T) {
	t.Parallel()
	a, _ := testWorkload(t, 1, 53)
	o := smallOpts()
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	byPEs := map[int]int{}
	for _, u := range sys.eus {
		byPEs[u.PEs()]++
	}
	for _, cl := range o.Config.EUClasses {
		if byPEs[cl.PEs] != cl.Count {
			t.Errorf("class %d PEs: %d units, config says %d", cl.PEs, byPEs[cl.PEs], cl.Count)
		}
	}
	if len(sys.sus) != o.Config.NumSUs {
		t.Errorf("%d SUs, config says %d", len(sys.sus), o.Config.NumSUs)
	}
}
