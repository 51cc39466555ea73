// Package mem models the accelerator's off-chip memory: an HBM 1.0
// channel/bank model with row-buffer locality and bandwidth queueing
// (standing in for the paper's Ramulator integration). Energy is
// accounted at the paper's 7 pJ/bit for HBM accesses. The on-chip read
// scratchpad is modeled where it lives (seedsched.ReadSPM).
package mem

import "nvwa/internal/ckpt"

// HBMConfig describes the off-chip memory. Defaults follow the
// paper's Table I (HBM 1.0, 256 GB/s at a 1 GHz core clock).
type HBMConfig struct {
	// Channels is the number of independent HBM channels.
	Channels int
	// BanksPerChannel is the number of banks per channel.
	BanksPerChannel int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// RowHitLatency is the access latency in core cycles on a row hit.
	RowHitLatency int64
	// RowMissLatency is the latency on a row-buffer miss (precharge +
	// activate + CAS).
	RowMissLatency int64
	// BytesPerCycle is the per-channel data-bus throughput in bytes per
	// core cycle.
	BytesPerCycle int
	// EnergyPerBit is the access energy in picojoules per bit.
	EnergyPerBit float64
}

// HBM1 returns the paper's HBM 1.0 configuration: 8 channels x 32 B/cy
// = 256 GB/s at 1 GHz, 7 pJ/bit.
func HBM1() HBMConfig {
	return HBMConfig{
		Channels:        8,
		BanksPerChannel: 16,
		RowBytes:        2048,
		RowHitLatency:   40,
		RowMissLatency:  80,
		BytesPerCycle:   32,
		EnergyPerBit:    7,
	}
}

// Stats aggregates memory-system counters.
type Stats struct {
	Accesses  int64
	RowHits   int64
	RowMisses int64
	Bytes     int64
	// EnergyPJ is the access energy in picojoules.
	EnergyPJ float64
}

// HBM is a bank-level off-chip memory model. It is not safe for
// concurrent use; the simulation engine is single-threaded.
type HBM struct {
	cfg   HBMConfig
	banks []bank
	stats Stats
}

type bank struct {
	nextFree int64
	openRow  int64
	hasRow   bool
}

// NewHBM builds the memory model from cfg.
func NewHBM(cfg HBMConfig) *HBM {
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 || cfg.RowBytes <= 0 || cfg.BytesPerCycle <= 0 {
		panic("mem: invalid HBMConfig")
	}
	return &HBM{cfg: cfg, banks: make([]bank, cfg.Channels*cfg.BanksPerChannel)}
}

// Access models a read or write of size bytes at addr issued at cycle
// now, returning the completion cycle. Requests to a busy bank queue
// behind it; row-buffer state determines the access latency; the data
// burst occupies the bank for bytes/BytesPerCycle cycles.
func (m *HBM) Access(now int64, addr int64, bytes int) int64 {
	if bytes <= 0 {
		bytes = 1
	}
	row := addr / int64(m.cfg.RowBytes)
	// Interleave rows across channels then banks.
	b := &m.banks[int(row)%len(m.banks)]

	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	var lat int64
	if b.hasRow && b.openRow == row {
		lat = m.cfg.RowHitLatency
		m.stats.RowHits++
	} else {
		lat = m.cfg.RowMissLatency
		m.stats.RowMisses++
		b.openRow = row
		b.hasRow = true
	}
	burst := int64((bytes + m.cfg.BytesPerCycle - 1) / m.cfg.BytesPerCycle)
	done := start + lat + burst
	b.nextFree = start + burst // bus occupancy; latency overlaps pipelined

	m.stats.Accesses++
	m.stats.Bytes += int64(bytes)
	m.stats.EnergyPJ += float64(bytes*8) * m.cfg.EnergyPerBit
	return done
}

// Stats returns a copy of the accumulated counters.
func (m *HBM) Stats() Stats { return m.stats }

// EncodeState writes the memory model's canonical state inventory:
// aggregate statistics plus a digest over per-bank timing state (bank
// count scales with the configuration, so each bank's row-buffer and
// queue state folds into one digest).
func (m *HBM) EncodeState(enc *ckpt.Encoder) {
	enc.Section("mem.HBM")
	enc.PutI64(m.stats.Accesses)
	enc.PutI64(m.stats.RowHits)
	enc.PutI64(m.stats.RowMisses)
	enc.PutI64(m.stats.Bytes)
	enc.PutF64(m.stats.EnergyPJ)
	enc.PutInt(len(m.banks))
	var d ckpt.Digest
	for _, b := range m.banks {
		d.I64(b.nextFree)
		d.I64(b.openRow)
		has := int64(0)
		if b.hasRow {
			has = 1
		}
		d.I64(has)
	}
	enc.PutU64(d.Sum())
}
