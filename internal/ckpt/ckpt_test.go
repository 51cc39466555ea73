package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sample() *Checkpoint {
	var e Encoder
	e.Section("engine")
	e.PutI64(1234)
	e.PutBool(true)
	e.PutF64(3.5)
	e.PutStr("su")
	st := e.Bytes()
	return &Checkpoint{
		Version:      Version,
		Shard:        2,
		Cycle:        10_000,
		Fired:        987_654,
		Seq:          42,
		WorkloadHash: 0xdeadbeef,
		OptionsHash:  0xfeedface,
		PlanHash:     0x1234,
		FeedLog:      []FeedRec{{Fired: 0, N: 100}, {Fired: 55, N: 7}},
		State:        st,
		StateHash:    fnvSum(st),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	c := sample()
	b := c.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", c, got)
	}
	if !bytes.Equal(got.Encode(), b) {
		t.Fatal("re-encode is not byte-identical")
	}
	if c.Hash() != got.Hash() {
		t.Fatal("hash changed across round trip")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	t.Parallel()
	b := sample().Encode()
	// Flip one byte in every position: magic, header, state, trailer.
	for _, pos := range []int{0, 9, 40, len(b) - 20, len(b) - 1} {
		mut := append([]byte(nil), b...)
		mut[pos] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
	if _, err := Decode(b[:len(b)-3]); err == nil {
		t.Error("truncated checkpoint not detected")
	}
	if _, err := Decode(append(append([]byte(nil), b...), 0)); err == nil {
		t.Error("trailing garbage not detected")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input not detected")
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	t.Parallel()
	c := sample()
	c.Version = Version + 1
	if _, err := Decode(c.Encode()); err == nil {
		t.Fatal("future version accepted")
	}
	// Version 1 predates the current state inventory and options hash:
	// its checkpoints cannot replay under this build.
	c.Version = 1
	if _, err := Decode(c.Encode()); err == nil {
		t.Fatal("version-1 checkpoint accepted")
	}
}

// dirNames lists the file names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteReadFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "shard0.ckpt")
	c := sample()
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "shard0.ckpt" {
		t.Errorf("directory holds %v, want only shard0.ckpt (temp file left behind?)", names)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatal("file round trip mismatch")
	}
}

// TestWriteFileFailureKeepsPrevious injects a failure after the new
// checkpoint's bytes are written but before they are durable: the
// write must report the error, the previous checkpoint must still read
// back intact, and no temp file may be left in the directory.
func TestWriteFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard0.ckpt")
	prev := sample()
	if err := prev.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	next := sample()
	next.Cycle++
	injected := errors.New("injected sync failure")
	syncFile = func(*os.File) error { return injected }
	err := next.WriteFile(path)
	syncFile = (*os.File).Sync
	if !errors.Is(err, injected) {
		t.Fatalf("WriteFile error = %v, want the injected failure", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after a failed write: %v", err)
	}
	if !reflect.DeepEqual(prev, got) {
		t.Fatal("previous checkpoint changed by a failed write")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "shard0.ckpt" {
		t.Fatalf("directory holds %v after a failed write, want only shard0.ckpt", names)
	}
}

func TestDigestDeterministicAndOrderSensitive(t *testing.T) {
	t.Parallel()
	var a, b, c Digest
	a.I64(1)
	a.I64(2)
	b.I64(1)
	b.I64(2)
	c.I64(2)
	c.I64(1)
	if a.Sum() != b.Sum() {
		t.Error("same fold sequence, different digest")
	}
	if a.Sum() == c.Sum() {
		t.Error("order-insensitive digest would mask reordering bugs")
	}
	var z Digest
	if z.Sum() != 0 {
		t.Error("empty digest must be 0")
	}
}

// digestValues encodes values for FuzzDigestMatchesFNV: per value, a
// byte n then the value's n low-order bytes, big-endian. The short
// forms make values with leading zero bytes common in the corpus.
func digestValues(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		n := 8 - bits.LeadingZeros64(v)/8
		b = append(b, byte(n))
		b = append(b, binary.BigEndian.AppendUint64(nil, v)[8-n:]...)
	}
	return b
}

// FuzzDigestMatchesFNV pins Digest's wire format: folding values
// through U64 and I64 equals stdlib FNV-1a over their big-endian bytes,
// and a digest that folded nothing sums to 0.
func FuzzDigestMatchesFNV(f *testing.F) {
	f.Add([]byte{})
	f.Add(digestValues(0))
	f.Add(digestValues(1, 2, 3, 255, 0, 128))
	f.Add(digestValues(^uint64(0)))
	f.Add(digestValues(1<<56, 0x0123456789abcdef, 1<<8))
	f.Fuzz(func(t *testing.T, in []byte) {
		var d Digest
		ref := fnv.New64a()
		folded := false
		for len(in) > 0 {
			n := int(in[0]) % 9
			in = in[1:]
			if n > len(in) {
				n = len(in)
			}
			var v uint64
			for _, c := range in[:n] {
				v = v<<8 | uint64(c)
			}
			in = in[n:]
			folded = true
			if len(in)%2 == 0 {
				d.U64(v)
			} else {
				d.I64(int64(v))
			}
			ref.Write(binary.BigEndian.AppendUint64(nil, v))
		}
		want := ref.Sum64()
		if !folded {
			want = 0
		}
		if got := d.Sum(); got != want {
			t.Fatalf("Digest.Sum() = %#x, stdlib FNV-1a = %#x", got, want)
		}
	})
}

func TestEncoderSectionsDisambiguate(t *testing.T) {
	t.Parallel()
	// Two different (section, value) splittings must not collide:
	// the length-prefixed section marker prevents ambiguity.
	var e1, e2 Encoder
	e1.Section("ab")
	e1.PutStr("c")
	e2.Section("a")
	e2.PutStr("bc")
	if bytes.Equal(e1.Bytes(), e2.Bytes()) {
		t.Fatal("encoder framing is ambiguous")
	}
}
