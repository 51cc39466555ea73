// Package seq provides compact DNA sequence representations shared by
// every other package in the repository.
//
// Bases are stored in a 2-bit code (A=0, C=1, G=2, T=3), the same code
// the FM-index, the hash index, and the systolic arrays operate on.
// The sentinel used by suffix-array construction is represented outside
// the code space.
package seq

import (
	"bytes"
	"strings"
)

// Base is a 2-bit encoded nucleotide: A=0, C=1, G=2, T=3.
type Base = byte

const baseLetters = "ACGT"

// EncodeBase converts an ASCII nucleotide to its 2-bit code.
// Lower-case letters are accepted. Any non-ACGT letter (e.g. N) maps to
// A; real aligners randomise Ns, but a deterministic mapping keeps the
// simulator reproducible.
func EncodeBase(c byte) Base {
	switch c {
	case 'A', 'a':
		return 0
	case 'C', 'c':
		return 1
	case 'G', 'g':
		return 2
	case 'T', 't':
		return 3
	default:
		return 0
	}
}

// DecodeBase converts a 2-bit code back to its ASCII letter.
func DecodeBase(b Base) byte { return baseLetters[b&3] }

// Complement returns the Watson-Crick complement of a 2-bit base.
// In the 2-bit code the complement is simply 3-b.
func Complement(b Base) Base { return 3 - (b & 3) }

// Seq is an unpacked 2-bit coded DNA sequence (one base per byte), the
// representation every index and alignment kernel works on.
type Seq []Base

// Encode converts an ASCII string to a Seq.
func Encode(s string) Seq {
	out := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = EncodeBase(s[i])
	}
	return out
}

// String renders the sequence as ASCII letters.
func (s Seq) String() string {
	var b strings.Builder
	b.Grow(len(s))
	for _, c := range s {
		b.WriteByte(DecodeBase(c))
	}
	return b.String()
}

// RevComp returns a newly allocated reverse complement of s.
func (s Seq) RevComp() Seq {
	out := make(Seq, len(s))
	for i, c := range s {
		out[len(s)-1-i] = Complement(c)
	}
	return out
}

// Clone returns a copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two sequences contain the same bases.
func (s Seq) Equal(t Seq) bool { return bytes.Equal(s, t) }
