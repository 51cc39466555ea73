package seq

import "testing"

// FuzzSeqRoundTrip checks the 2-bit code on arbitrary byte input:
// rendering a sequence as letters and encoding it back is the identity
// (after masking to the code space), Clone is an equal copy, and the
// reverse complement is an involution whose bases complement the
// mirrored input.
func FuzzSeqRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 3, 3, 3, 3})
	f.Add([]byte("ACGTACGTACGT"))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			raw = raw[:1<<16]
		}
		s := make(Seq, len(raw))
		for i, b := range raw {
			s[i] = b & 3
		}
		if got := Encode(s.String()); !got.Equal(s) {
			t.Fatalf("Encode(String()) round trip diverges:\n got %v\nwant %v", got, s)
		}
		if !s.Clone().Equal(s) {
			t.Fatal("Clone differs from its source")
		}
		rc := s.RevComp()
		for i := range s {
			if rc[len(s)-1-i] != Complement(s[i]) {
				t.Fatalf("RevComp[%d] = %d, want complement of %d", len(s)-1-i, rc[len(s)-1-i], s[i])
			}
		}
		if !rc.RevComp().Equal(s) {
			t.Fatal("RevComp is not an involution")
		}
	})
}
