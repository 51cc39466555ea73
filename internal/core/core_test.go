package core

import "testing"

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumSUs != 128 {
		t.Errorf("NumSUs = %d, want 128 (Table I)", c.NumSUs)
	}
	if got := c.TotalEUs(); got != 70 {
		t.Errorf("TotalEUs = %d, want 70 (Sec. V-A)", got)
	}
	if got := c.TotalPEs(); got != 2880 {
		t.Errorf("TotalPEs = %d, want 2880 (Sec. V-A)", got)
	}
	wantClasses := []EUClass{{16, 28}, {32, 20}, {64, 16}, {128, 6}}
	for i, cl := range c.EUClasses {
		if cl != wantClasses[i] {
			t.Errorf("class %d = %+v, want %+v", i, cl, wantClasses[i])
		}
	}
	if c.HitsBufferDepth != 1024 {
		t.Errorf("HitsBufferDepth = %d, want 1024 (Fig. 13a)", c.HitsBufferDepth)
	}
	if c.SwitchThreshold != 0.75 || c.IdleEUTrigger != 0.15 {
		t.Error("thresholds do not match Sec. IV-D")
	}
}

func TestValidateRejects(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.NumSUs = 0 },
		func(c *Config) { c.EUClasses = nil },
		func(c *Config) { c.EUClasses = []EUClass{{PEs: 0, Count: 1}} },
		func(c *Config) { c.EUClasses = []EUClass{{32, 1}, {16, 1}} }, // not increasing
		func(c *Config) { c.EUClasses = []EUClass{{16, 0}} },          // zero units
		func(c *Config) { c.HitsBufferDepth = 0 },
		func(c *Config) { c.SwitchThreshold = 0 },
		func(c *Config) { c.SwitchThreshold = 1.5 },
		func(c *Config) { c.IdleEUTrigger = -0.1 },
		func(c *Config) { c.AllocBatch = 0 },
		func(c *Config) { c.MinSeedLen = 0 },
	}
	for i, mut := range mutations {
		c := base
		c.EUClasses = append([]EUClass(nil), base.EUClasses...)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid config", i)
		}
	}
}

func TestHitSeedLen(t *testing.T) {
	h := Hit{ReadBeg: 20, ReadEnd: 60, ReadLen: 101}
	if h.SeedLen() != 40 {
		t.Errorf("SeedLen = %d", h.SeedLen())
	}
}

func TestUnitStateString(t *testing.T) {
	if Idle.String() != "idle" || Busy.String() != "busy" || Stopped.String() != "stop" {
		t.Error("state names do not match the Table III control interface")
	}
	if UnitState(9).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestUniformEUConfig(t *testing.T) {
	c := DefaultConfig().UniformEUConfig(64)
	if len(c.EUClasses) != 1 {
		t.Fatalf("classes = %v", c.EUClasses)
	}
	if c.EUClasses[0].PEs != 64 || c.EUClasses[0].Count != 45 {
		t.Errorf("uniform pool = %+v, want 45x64 (2880 PEs)", c.EUClasses[0])
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
