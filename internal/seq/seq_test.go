package seq

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeBase(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   byte
		want Base
	}{
		{'A', 0}, {'C', 1}, {'G', 2}, {'T', 3},
		{'a', 0}, {'c', 1}, {'g', 2}, {'t', 3},
		{'N', 0}, {'x', 0},
	}
	for _, c := range cases {
		if got := EncodeBase(c.in); got != c.want {
			t.Errorf("EncodeBase(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for b := Base(0); b < 4; b++ {
		if got := EncodeBase(DecodeBase(b)); got != b {
			t.Errorf("round trip of base %d gave %d", b, got)
		}
	}
}

func TestComplement(t *testing.T) {
	t.Parallel()
	pairs := [][2]byte{{'A', 'T'}, {'C', 'G'}, {'G', 'C'}, {'T', 'A'}}
	for _, p := range pairs {
		if got := DecodeBase(Complement(EncodeBase(p[0]))); got != p[1] {
			t.Errorf("complement of %q = %q, want %q", p[0], got, p[1])
		}
	}
}

func TestEncodeString(t *testing.T) {
	t.Parallel()
	s := Encode("ACGTACGT")
	if s.String() != "ACGTACGT" {
		t.Fatalf("round trip failed: %q", s.String())
	}
}

func TestRevComp(t *testing.T) {
	t.Parallel()
	s := Encode("AACGT")
	rc := s.RevComp()
	if rc.String() != "ACGTT" {
		t.Fatalf("RevComp = %q, want ACGTT", rc.String())
	}
}

func TestRevCompInvolution(t *testing.T) {
	t.Parallel()
	f := func(raw []byte) bool {
		s := make(Seq, len(raw))
		for i, b := range raw {
			s[i] = b & 3
		}
		return s.RevComp().RevComp().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	t.Parallel()
	s := Encode("ACGT")
	c := s.Clone()
	c[0] = 3
	if s[0] != 0 {
		t.Fatal("Clone aliases original")
	}
}

// TestEqual pins Seq.Equal on equal sequences (empty and nil among
// them), unequal lengths that share a prefix, and a difference in the
// last base only.
func TestEqual(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b Seq
		want bool
	}{
		{Encode("ACGT"), Encode("ACGT"), true},
		{nil, Seq{}, true},
		{Encode("ACG"), Encode("ACGT"), false},
		{Encode("ACGT"), Encode("ACG"), false},
		{Encode("ACGT"), Encode("ACGA"), false},
		{Encode("T"), Encode("G"), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%q.Equal(%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
