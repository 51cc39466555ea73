// Package ckpt implements versioned, canonical, hash-guarded
// checkpoints of simulator state. A checkpoint is a verified
// synchronization point: the simulator serializes a canonical
// inventory of its scheduler state (unit states, queues, event-heap
// descriptors, fault-injector arming, observability ledgers) into a
// byte string guarded by an FNV-1a digest. Restore re-derives the
// live state by deterministic re-execution to the checkpoint's exact
// fired-event count and then proves equivalence by re-snapshotting
// and byte-comparing — so a restored run is byte-identical to the
// uninterrupted run by construction, not by hope.
//
// The package is a leaf: it imports only the standard library, so
// every simulator layer (sim, fault, coordinator, su, eu, mem,
// seedsched, accel) can depend on it without cycles.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
)

// Wire constants. The magic pins the file type; the version gates
// compatibility: Decode rejects any version it does not know how to
// interpret, because a checkpoint is only useful if the simulator
// that restores it reproduces the writer's semantics exactly.
const (
	magic = "NVWACKPT"
	// Version is the current checkpoint wire version. Bump it on any
	// change to the state inventory or encoding layout; there is no
	// cross-version migration — determinism across versions cannot be
	// guaranteed, so old checkpoints are rejected rather than misread.
	Version = 2
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FeedRec records one Feed call: N reads were appended when the
// engine had fired exactly Fired events. Replay re-issues each feed
// at the same fired-event position, which makes mid-cycle feeds exact
// (cycle alone cannot order a feed between two same-cycle events).
type FeedRec struct {
	Fired int64
	N     int64
}

// Checkpoint is one snapshot of a System. The three hashes bind the
// checkpoint to its inputs: WorkloadHash to the fed reads,
// OptionsHash to the configuration, PlanHash to the fault plan.
// Restore refuses a checkpoint whose hashes do not match the
// rebuilt system, because replay under different inputs would
// silently diverge.
type Checkpoint struct {
	Version uint32
	// Shard is the shard index the snapshot was taken in (0 when
	// unsharded); recovery uses it to route a crashed shard's
	// checkpoint back to the right partition.
	Shard int32

	// Cycle, Fired and Seq pin the engine position: current cycle,
	// total events fired, and next sequence number.
	Cycle int64
	Fired int64
	Seq   int64

	WorkloadHash uint64
	OptionsHash  uint64
	PlanHash     uint64

	// FeedLog replays incremental Feed calls at their exact
	// fired-event positions.
	FeedLog []FeedRec

	// State is the canonical encoded state inventory; StateHash is
	// its FNV-1a digest (redundant with the trailer, but lets callers
	// compare inventories without re-hashing).
	State     []byte
	StateHash uint64
}

// Encode serializes the checkpoint into the guarded wire format:
// magic, fixed-width big-endian fields, then an FNV-1a trailer over
// everything before it.
func (c *Checkpoint) Encode() []byte {
	var e Encoder
	e.raw([]byte(magic))
	e.PutU64(uint64(c.Version)<<32 | uint64(uint32(c.Shard)))
	e.PutI64(c.Cycle)
	e.PutI64(c.Fired)
	e.PutI64(c.Seq)
	e.PutU64(c.WorkloadHash)
	e.PutU64(c.OptionsHash)
	e.PutU64(c.PlanHash)
	e.PutI64(int64(len(c.FeedLog)))
	for _, f := range c.FeedLog {
		e.PutI64(f.Fired)
		e.PutI64(f.N)
	}
	e.PutI64(int64(len(c.State)))
	e.raw(c.State)
	e.PutU64(c.StateHash)
	e.PutU64(e.Sum64()) // trailer guard
	return e.Bytes()
}

// Hash returns the FNV-1a digest of the full encoded checkpoint —
// the resume identity used to key caches so a resumed run never
// aliases a fresh run.
func (c *Checkpoint) Hash() uint64 {
	return fnvSum(c.Encode())
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("ckpt: truncated at offset %d (want %d bytes, have %d)", d.off, n, len(d.b)-d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u64() uint64 {
	s := d.raw(8)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

// Decode parses and verifies a checkpoint: magic, trailer digest,
// version, and state-digest integrity. Any mismatch is an error — a
// corrupt or foreign checkpoint must never replay.
func Decode(b []byte) (*Checkpoint, error) {
	if len(b) < len(magic)+8 {
		return nil, errors.New("ckpt: too short to be a checkpoint")
	}
	if string(b[:len(magic)]) != magic {
		return nil, errors.New("ckpt: bad magic (not a checkpoint file)")
	}
	body, trailer := b[:len(b)-8], binary.BigEndian.Uint64(b[len(b)-8:])
	if got := fnvSum(body); got != trailer {
		return nil, fmt.Errorf("ckpt: checksum mismatch (file %#x, computed %#x): checkpoint corrupt", trailer, got)
	}
	d := &decoder{b: body, off: len(magic)}
	c := &Checkpoint{}
	vs := d.u64()
	c.Version = uint32(vs >> 32)
	c.Shard = int32(uint32(vs))
	if d.err == nil && c.Version != Version {
		return nil, fmt.Errorf("ckpt: version %d not supported (this build writes version %d)", c.Version, Version)
	}
	c.Cycle = d.i64()
	c.Fired = d.i64()
	c.Seq = d.i64()
	c.WorkloadHash = d.u64()
	c.OptionsHash = d.u64()
	c.PlanHash = d.u64()
	nFeed := d.i64()
	if d.err == nil && (nFeed < 0 || nFeed > int64(len(body))) {
		return nil, fmt.Errorf("ckpt: implausible feed-log length %d", nFeed)
	}
	for i := int64(0); i < nFeed && d.err == nil; i++ {
		c.FeedLog = append(c.FeedLog, FeedRec{Fired: d.i64(), N: d.i64()})
	}
	nState := d.i64()
	if d.err == nil && (nState < 0 || nState > int64(len(body))) {
		return nil, fmt.Errorf("ckpt: implausible state length %d", nState)
	}
	if d.err == nil {
		c.State = append([]byte(nil), d.raw(int(nState))...)
	}
	c.StateHash = d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after checkpoint body", len(body)-d.off)
	}
	if got := fnvSum(c.State); got != c.StateHash {
		return nil, fmt.Errorf("ckpt: state digest mismatch (recorded %#x, computed %#x)", c.StateHash, got)
	}
	return c, nil
}

// WriteFile atomically and durably persists an encoded checkpoint: it
// writes a fresh temp file in the target directory, fsyncs it, renames
// it over path, and fsyncs the directory so the rename itself survives
// a power loss. A crash at any point leaves either the previous
// checkpoint or the new one at path — never a torn one — and a failed
// write removes its temp file.
func (c *Checkpoint) WriteFile(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(c.Encode()); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = syncFile(f); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncFile flushes a written checkpoint to stable storage; tests
// replace it to inject a write failure.
var syncFile = (*os.File).Sync

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// ReadFile loads and verifies a checkpoint from disk.
func ReadFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// Encoder builds the canonical state inventory. All integers are
// fixed-width big-endian so the byte string is platform-independent;
// sections carry their name so a decode-for-diff tool (and a human
// reading a hex dump) can attribute a divergence to a component.
type Encoder struct {
	buf []byte
}

func (e *Encoder) raw(b []byte) { e.buf = append(e.buf, b...) }

// Section marks the start of a component's state.
func (e *Encoder) Section(name string) { e.PutStr("§" + name) }

// PutBool appends a bool as one byte.
func (e *Encoder) PutBool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// PutInt appends an int as a fixed-width int64.
func (e *Encoder) PutInt(v int) { e.PutI64(int64(v)) }

// PutI64 appends a big-endian int64.
func (e *Encoder) PutI64(v int64) { e.PutU64(uint64(v)) }

// PutU64 appends a big-endian uint64.
func (e *Encoder) PutU64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutF64 appends a float64 as its IEEE-754 bit pattern.
func (e *Encoder) PutF64(v float64) { e.PutU64(math.Float64bits(v)) }

// PutStr appends a length-prefixed string.
func (e *Encoder) PutStr(s string) {
	e.PutU64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Sum64 returns the FNV-1a digest of the accumulated encoding.
func (e *Encoder) Sum64() uint64 { return fnvSum(e.buf) }

// Digest folds values into a running FNV-1a hash — used to summarize
// bulk arrays (per-read results, busy intervals) where storing every
// element in the inventory would dominate checkpoint size while a
// digest detects divergence just as well.
type Digest struct {
	h       uint64
	started bool
}

// fnvPrimePow[k] is fnvPrime^k.
var fnvPrimePow = func() (t [9]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * fnvPrime
	}
	return t
}()

// fold runs FNV-1a over v's eight big-endian bytes. A zero byte only
// multiplies the state by the prime, so v's leading zero bytes are
// folded with one multiply by a power of the prime and the loop covers
// the rest: a small value costs one or two multiplies instead of eight.
func (d *Digest) fold(v uint64) {
	if !d.started {
		d.h = fnvOffset
		d.started = true
	}
	z := bits.LeadingZeros64(v) / 8
	h := d.h * fnvPrimePow[z]
	for shift := 56 - 8*z; shift >= 0; shift -= 8 {
		h = (h ^ (v >> uint(shift) & 0xff)) * fnvPrime
	}
	d.h = h
}

// I64 folds an int64 into the digest.
func (d *Digest) I64(v int64) { d.fold(uint64(v)) }

// U64 folds a uint64 into the digest.
func (d *Digest) U64(v uint64) { d.fold(v) }

// F64 folds a float64's bit pattern into the digest.
func (d *Digest) F64(v float64) { d.fold(math.Float64bits(v)) }

// Sum returns the digest value (0 if nothing was folded, so an empty
// array digests identically everywhere).
func (d *Digest) Sum() uint64 {
	if !d.started {
		return 0
	}
	return d.h
}

func fnvSum(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}
