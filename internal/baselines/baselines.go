// Package baselines embeds the comparison platforms of the paper's
// Fig. 11 and Table II energy discussion. The paper itself evaluates
// GenAx, GenCache, SeedEx, and ERT "using data reported by the
// original work" (Sec. V-B); this package follows the same
// methodology, deriving each platform's absolute throughput from the
// paper's reported NvWa throughput (49,150 Kreads/s) and speedup
// ratios. The simulated systems (NvWa, SUs+EUs) are measured by
// package accel; these constants contextualise them.
package baselines

// Platform is one comparison point.
type Platform struct {
	// Name of the system.
	Name string
	// Kind is the hardware category (CPU/GPU/FPGA/ASIC/PIM/this work).
	Kind string
	// ThroughputKReads is reads/sec in thousands on NA12878.
	ThroughputKReads float64
	// PaperSpeedup is NvWa's reported speedup over this platform
	// (1.0 for NvWa itself).
	PaperSpeedup float64
	// PaperEnergyReduction is NvWa's reported energy reduction
	// (0 when the paper does not report one).
	PaperEnergyReduction float64
	// Reported marks values quoted from the paper rather than
	// simulated in this repository.
	Reported bool
}

// NvWaReportedKReads is the paper's NvWa throughput in Kreads/s.
const NvWaReportedKReads = 49150.0

// Platforms returns the Fig. 11 comparison set.
func Platforms() []Platform {
	return []Platform{
		{Name: "BWA-MEM (16-thread CPU)", Kind: "CPU", ThroughputKReads: NvWaReportedKReads / 493, PaperSpeedup: 493, PaperEnergyReduction: 14.21, Reported: true},
		{Name: "GASAL2 (A100 GPU)", Kind: "GPU", ThroughputKReads: NvWaReportedKReads / 200, PaperSpeedup: 200, PaperEnergyReduction: 5.60, Reported: true},
		{Name: "ERT+SeedEx (FPGA)", Kind: "FPGA", ThroughputKReads: NvWaReportedKReads / 151, PaperSpeedup: 151, Reported: true},
		{Name: "GenAx (ASIC)", Kind: "ASIC", ThroughputKReads: NvWaReportedKReads / 12.11, PaperSpeedup: 12.11, PaperEnergyReduction: 4.34, Reported: true},
		{Name: "GenCache (PIM)", Kind: "PIM", ThroughputKReads: NvWaReportedKReads / 2.30, PaperSpeedup: 2.30, PaperEnergyReduction: 5.85, Reported: true},
		{Name: "SUs+EUs (no scheduling)", Kind: "ASIC", ThroughputKReads: NvWaReportedKReads / 12.11 * 0.8879, PaperSpeedup: 12.11 / 0.8879, Reported: true},
		{Name: "NvWa", Kind: "this work", ThroughputKReads: NvWaReportedKReads, PaperSpeedup: 1, Reported: true},
	}
}
