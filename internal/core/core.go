// Package core defines the types shared across the NvWa accelerator
// model: hits and extension results (the Table III data interface
// between computing units and schedulers), unit control states, and
// the Table I system configuration.
package core

import (
	"fmt"

	"nvwa/internal/ckpt"
)

// Hit is the SU output record of the Table III data interface:
// [read_idx, hit_idx, direction, read_pos, ref_pos]. A hit is a
// chained seed occurrence the EU must extend.
type Hit struct {
	// ReadIdx identifies the read (read_idx).
	ReadIdx int
	// HitIdx numbers the hit within its read (hit_idx).
	HitIdx int
	// Rev is the direction flag: the hit lies on the reverse-complement
	// strand.
	Rev bool
	// ReadBeg and ReadEnd delimit the seed on the oriented read
	// (read_pos). The oriented read is the read itself for forward
	// hits and its reverse complement for reverse hits, so the EU
	// never needs strand logic.
	ReadBeg, ReadEnd int
	// RefPos is the reference position the seed starts at (ref_pos),
	// always in forward reference coordinates.
	RefPos int
	// ReadLen is the full read length, from which the extension scale
	// is derived.
	ReadLen int
	// SeedScore is the score contributed by the exact seed match.
	SeedScore int
}

// Fold folds every field of the hit into a checkpoint digest, in
// declaration order. Queued-hit sets (scheduler buffers, retry
// queues) digest their contents this way instead of storing each
// record in the state inventory.
func (h Hit) Fold(d *ckpt.Digest) {
	d.I64(int64(h.ReadIdx))
	d.I64(int64(h.HitIdx))
	rev := int64(0)
	if h.Rev {
		rev = 1
	}
	d.I64(rev)
	d.I64(int64(h.ReadBeg))
	d.I64(int64(h.ReadEnd))
	d.I64(int64(h.RefPos))
	d.I64(int64(h.ReadLen))
	d.I64(int64(h.SeedScore))
}

// SeedLen returns the exact-match length of the hit.
func (h Hit) SeedLen() int { return h.ReadEnd - h.ReadBeg }

// SchedLen is the paper's hit_len: "the difference between the end
// coordinate and the start coordinate of the read_pos" (Fig. 10 step
// 2) — the hit's read span. It is what the Coordinator sorts and
// classifies by: strong full-coverage chains are long tasks, while the
// numerous spurious repeat-fragment chains are short tasks whose
// extensions z-drop out almost immediately.
func (h Hit) SchedLen() int { return h.ReadEnd - h.ReadBeg }

// Extension is the EU output record of the Table III data interface:
// [sus_output, alignment_result].
type Extension struct {
	Hit
	// Score is the alignment score after extending the seed both ways.
	Score int
	// RefBeg and RefEnd delimit the aligned reference span.
	RefBeg, RefEnd int
	// ReadBeg and ReadEnd delimit the aligned span on the oriented
	// read. They deliberately shadow the embedded Hit's fields of the
	// same name (which delimit only the exact seed): a full-coverage
	// extension covers most of the read, a z-dropped one little more
	// than its seed, and the traceback cost model walks this span —
	// not the seed span.
	ReadBeg, ReadEnd int
}

// ReadSpan returns the aligned read-span length (the query side of
// the traceback walk).
func (e Extension) ReadSpan() int { return e.ReadEnd - e.ReadBeg }

// RefSpan returns the aligned reference-span length.
func (e Extension) RefSpan() int { return e.RefEnd - e.RefBeg }

// UnitState is the Table III control interface state of an SU or EU.
type UnitState int

// Unit states. EUs additionally expose their PE count via the
// pe_number signal (ExtensionUnit.PEs).
const (
	Idle UnitState = iota
	Busy
	Stopped
)

// String renders the state name.
func (s UnitState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Busy:
		return "busy"
	case Stopped:
		return "stop"
	default:
		return fmt.Sprintf("UnitState(%d)", int(s))
	}
}

// EUClass describes one class of extension units in the hybrid pool.
type EUClass struct {
	// PEs is the systolic-array width of every unit in the class.
	PEs int
	// Count is the number of units of this class.
	Count int
}

// Config is the NvWa system configuration (paper Table I and Sec. V-A).
type Config struct {
	// NumSUs is the number of seeding units (paper: 128).
	NumSUs int
	// EUClasses is the hybrid extension-unit pool (paper: 28x16,
	// 20x32, 16x64, 6x128 = 70 units, 2880 PEs).
	EUClasses []EUClass
	// HitsBufferDepth is the Coordinator's Store/Processing buffer
	// depth in hits (paper DSE optimum: 1024).
	HitsBufferDepth int
	// SwitchThreshold is the Store Buffer fill fraction that triggers a
	// buffer switch (paper: 0.75).
	SwitchThreshold float64
	// IdleEUTrigger is the idle-EU fraction at which the Allocate
	// Trigger requests a scheduling round (paper: 0.15).
	IdleEUTrigger float64
	// AllocBatch is the number of hits one allocation round examines.
	AllocBatch int
	// MinSeedLen is the minimum SMEM seed length (BWA-MEM default 19).
	MinSeedLen int
	// MaxSeedOcc caps located occurrences per SMEM (repeat masking).
	MaxSeedOcc int
	// ClockGHz is the accelerator clock (paper: 1 GHz).
	ClockGHz float64
}

// DefaultConfig returns the paper's Table I NvWa configuration.
func DefaultConfig() Config {
	return Config{
		NumSUs: 128,
		EUClasses: []EUClass{
			{PEs: 16, Count: 28},
			{PEs: 32, Count: 20},
			{PEs: 64, Count: 16},
			{PEs: 128, Count: 6},
		},
		HitsBufferDepth: 1024,
		SwitchThreshold: 0.75,
		IdleEUTrigger:   0.15,
		AllocBatch:      16,
		MinSeedLen:      19,
		MaxSeedOcc:      16,
		ClockGHz:        1.0,
	}
}

// TotalEUs returns the number of extension units.
func (c Config) TotalEUs() int {
	n := 0
	for _, cl := range c.EUClasses {
		n += cl.Count
	}
	return n
}

// TotalPEs returns the number of processing elements across all EUs.
func (c Config) TotalPEs() int {
	n := 0
	for _, cl := range c.EUClasses {
		n += cl.PEs * cl.Count
	}
	return n
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.NumSUs <= 0 {
		return fmt.Errorf("core: NumSUs = %d, must be positive", c.NumSUs)
	}
	if len(c.EUClasses) == 0 {
		return fmt.Errorf("core: no EU classes configured")
	}
	for i, cl := range c.EUClasses {
		if cl.PEs <= 0 || cl.Count < 0 {
			return fmt.Errorf("core: EU class %d invalid: %+v", i, cl)
		}
		if i > 0 && cl.PEs <= c.EUClasses[i-1].PEs {
			return fmt.Errorf("core: EU classes must have strictly increasing PE counts")
		}
	}
	if c.TotalEUs() == 0 {
		return fmt.Errorf("core: zero extension units")
	}
	if c.HitsBufferDepth <= 0 {
		return fmt.Errorf("core: HitsBufferDepth = %d", c.HitsBufferDepth)
	}
	if c.SwitchThreshold <= 0 || c.SwitchThreshold > 1 {
		return fmt.Errorf("core: SwitchThreshold = %v out of (0,1]", c.SwitchThreshold)
	}
	if c.IdleEUTrigger < 0 || c.IdleEUTrigger > 1 {
		return fmt.Errorf("core: IdleEUTrigger = %v out of [0,1]", c.IdleEUTrigger)
	}
	if c.AllocBatch <= 0 {
		return fmt.Errorf("core: AllocBatch = %d", c.AllocBatch)
	}
	if c.MinSeedLen <= 0 {
		return fmt.Errorf("core: MinSeedLen = %d", c.MinSeedLen)
	}
	return nil
}

// UniformEUConfig returns the SUs+EUs baseline pool the paper compares
// against in Fig. 9(b)/Fig. 12: the same total PE budget arranged as
// uniform units of uniformPEs each.
func (c Config) UniformEUConfig(uniformPEs int) Config {
	out := c
	out.EUClasses = []EUClass{{PEs: uniformPEs, Count: c.TotalPEs() / uniformPEs}}
	return out
}
