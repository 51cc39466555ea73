package seedsched

import (
	"nvwa/internal/ckpt"
	"nvwa/internal/mem"
	"nvwa/internal/obs"
)

// ReadSPM is the Seeding Scheduler's read scratchpad (paper Fig. 4):
// it prefetches upcoming reads from DRAM into on-chip memory in
// batches, keeping a lookahead window ahead of the allocator so a read
// handed to an SU is normally served in a single SPM cycle instead of
// exposing DRAM latency.
type ReadSPM struct {
	hbm       *mem.HBM
	readBytes int     // size of one read record in DRAM
	batch     int     // reads fetched per DRAM transaction
	lookahead int     // batches prefetched beyond the requested one
	doneAt    []int64 // completion cycle of each issued batch
	obs       *obs.Observer
}

// AttachObs wires an observer into the prefetcher so every DRAM
// prefetch transaction emits a trace span and metric updates. A nil
// observer detaches.
func (p *ReadSPM) AttachObs(o *obs.Observer) { p.obs = o }

// NewReadSPM builds a prefetcher. window is the SPM capacity in reads;
// batch reads are fetched per DRAM transaction.
func NewReadSPM(hbm *mem.HBM, window, readBytes, batch int) *ReadSPM {
	if window <= 0 || readBytes <= 0 || batch <= 0 {
		panic("seedsched: invalid ReadSPM parameters")
	}
	la := window / batch
	if la < 1 {
		la = 1
	}
	return &ReadSPM{hbm: hbm, readBytes: readBytes, batch: batch, lookahead: la}
}

// Fetched returns how many reads have been prefetched so far.
func (p *ReadSPM) Fetched() int { return len(p.doneAt) * p.batch }

// ReadyAt returns the cycle at which read idx is available from the
// SPM, issuing any prefetches the request implies. A read whose batch
// already completed costs one SPM cycle.
func (p *ReadSPM) ReadyAt(now int64, idx int) int64 {
	b := idx / p.batch
	for len(p.doneAt) <= b+p.lookahead {
		next := len(p.doneAt)
		done := p.hbm.Access(now, int64(next)*int64(p.batch)*int64(p.readBytes), p.batch*p.readBytes)
		p.doneAt = append(p.doneAt, done)
		if p.obs != nil {
			p.obs.Prefetch(next, p.batch, now, done)
		}
	}
	if at := p.doneAt[b]; at > now+1 {
		return at
	}
	return now + 1
}

// EncodeState writes the prefetcher's canonical state inventory: the
// issued-batch completion schedule (digested — it grows with input
// length).
func (p *ReadSPM) EncodeState(enc *ckpt.Encoder) {
	enc.Section("seedsched.ReadSPM")
	enc.PutInt(len(p.doneAt))
	var d ckpt.Digest
	for _, at := range p.doneAt {
		d.I64(at)
	}
	enc.PutU64(d.Sum())
}
