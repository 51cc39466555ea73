package systolic

// TracebackModel sizes the array's traceback pointer storage and the
// read-out path, GACT-style: every DP cell the array computes banks a
// direction pointer into on-array SRAM, and once the fill finishes the
// unit walks the pointers back along the final alignment path to emit
// a full CIGAR. When a task's pointer matrix exceeds the array's SRAM
// budget the overflow spills to HBM during the fill and must be
// streamed back during the walk, charging extra read-out cycles — the
// sizing constraint that makes pointer-matrix SRAM a first-class
// accelerator parameter (Darwin tiles GACT at exactly the size where
// the matrix still fits on chip).
//
// The zero value is the storage-free model: no SRAM accounting, a pure
// path walk at one step per cycle — the paper's footnote-4 constant
// (independent of the PE count) over the *alignment* spans,
// refSpan + readSpan cycles.
type TracebackModel struct {
	// BitsPerCell is the pointer width banked per computed DP cell
	// (2 bits encode the diagonal/up/left direction set). 0 disables
	// storage accounting entirely.
	BitsPerCell int
	// SRAMBytes is the per-array pointer SRAM budget. A task whose
	// computed cells need more than this spills the overflow to HBM.
	SRAMBytes int
	// SpillReadBits is how many spilled pointer bits the read-out path
	// streams back per cycle during the walk (HBM burst width).
	SpillReadBits int
	// StepsPerCycle is the pointer-follow rate within SRAM; values < 1
	// are treated as 1.
	StepsPerCycle int
}

// DefaultTracebackModel returns the calibrated pointer-matrix model:
// 2-bit direction pointers, 16 KiB of pointer SRAM per array (a
// 256x256 task just fits), and a 32-byte/cycle HBM read-back burst.
func DefaultTracebackModel() TracebackModel {
	return TracebackModel{
		BitsPerCell:   2,
		SRAMBytes:     16 << 10,
		SpillReadBits: 256,
		StepsPerCycle: 1,
	}
}

// TracebackCost is one task's traceback accounting under a
// TracebackModel.
type TracebackCost struct {
	// Cycles is the total traceback latency: the pointer walk plus any
	// spill read-out.
	Cycles int64
	// Spilled reports that the task's pointer matrix exceeded the
	// array SRAM and part of it went to HBM.
	Spilled bool
	// SpillCycles is the read-out portion of Cycles spent streaming
	// spilled pointers back from HBM (0 when the matrix fit).
	SpillCycles int64
}

// Cost charges the traceback of one task: cells is how many DP cells
// the fill actually computed (each banks a pointer), and pathLen is
// the number of walk steps over the final alignment path — the
// footnote-4 refSpan+readSpan upper bound on the emitted CIGAR length.
func (m TracebackModel) Cost(cells, pathLen int) TracebackCost {
	if pathLen < 0 {
		pathLen = 0
	}
	steps := m.StepsPerCycle
	if steps < 1 {
		steps = 1
	}
	c := TracebackCost{Cycles: int64((pathLen + steps - 1) / steps)}
	if m.BitsPerCell <= 0 || cells <= 0 {
		return c
	}
	bits := int64(cells) * int64(m.BitsPerCell)
	budget := int64(m.SRAMBytes) * 8
	if bits <= budget {
		return c
	}
	c.Spilled = true
	spillBits := bits - budget
	burst := int64(m.SpillReadBits)
	if burst < 1 {
		burst = 1
	}
	c.SpillCycles = (spillBits + burst - 1) / burst
	c.Cycles += c.SpillCycles
	return c
}
