package pipeline

import (
	"bufio"
	"fmt"
	"io"

	"nvwa/internal/seq"
)

// SAM flag bits (SAM spec v1).
const (
	FlagPaired       = 0x1
	FlagProperPair   = 0x2
	FlagUnmapped     = 0x4
	FlagMateUnmapped = 0x8
	FlagReverse      = 0x10
	FlagMateReverse  = 0x20
	FlagFirstInPair  = 0x40
	FlagSecondInPair = 0x80
)

// MapQ estimates a Phred-scaled mapping quality from the best and
// second-best alignment scores, following the shape of BWA-MEM's
// formula: confidence grows with the score gap and shrinks with the
// number of competing hits.
func MapQ(best, second, hits int, sc int) int {
	if best <= 0 {
		return 0
	}
	if second < 0 {
		second = 0
	}
	gap := best - second
	if gap <= 0 {
		return 0
	}
	// 6.02 * gap / match-score approximates BWA-MEM's slope; cap at 60.
	q := 6 * gap / max1i(sc, 1)
	if hits > 2 {
		q -= hits // many competing chains reduce confidence
	}
	if q < 0 {
		q = 0
	}
	if q > 60 {
		q = 60
	}
	return q
}

func max1i(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SAMRecord is one alignment line.
type SAMRecord struct {
	QName string
	Flag  int
	RName string
	Pos   int // 1-based leftmost position
	MapQ  int
	Cigar string
	RNext string
	PNext int
	TLen  int
	Seq   string
	Qual  string
}

// String renders the record as a SAM line (no trailing newline).
func (r SAMRecord) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%d\t%d\t%s\t%s\t%d\t%d\t%s\t%s",
		r.QName, r.Flag, r.RName, r.Pos, r.MapQ, r.Cigar, r.RNext, r.PNext, r.TLen, r.Seq, r.Qual)
}

// SAMWriter emits a SAM header and records.
type SAMWriter struct {
	w       *bufio.Writer
	refName string
}

// NewSAMWriter writes the @HD/@SQ/@PG header for a single-sequence
// reference and returns the writer.
func NewSAMWriter(w io.Writer, refName string, refLen int) (*SAMWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "@HD\tVN:1.6\tSO:unknown\n@SQ\tSN:%s\tLN:%d\n@PG\tID:nvwa\tPN:nvwa-align\n", refName, refLen); err != nil {
		return nil, err
	}
	return &SAMWriter{w: bw, refName: refName}, nil
}

// Flush flushes buffered records.
func (s *SAMWriter) Flush() error { return s.w.Flush() }

func reverseString(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// SecondBest returns the second-highest extension score for MAPQ
// estimation, given all of a read's extension scores.
func SecondBest(scores []int) (best, second int) {
	second = -1
	best = -1
	for _, s := range scores {
		if s > best {
			second = best
			best = s
		} else if s > second {
			second = s
		}
	}
	return
}

// WritePaired writes one end of a read pair: flags must already carry
// the pairing bits; own/mate supply positions, and tlen is the signed
// template length (0 when not proper).
func (s *SAMWriter) WritePaired(name string, read seq.Seq, qual []byte, own, mate Result, flag, tlen int, cigar string) error {
	rec := SAMRecord{
		QName: name,
		Flag:  flag,
		RName: "*",
		Cigar: "*",
		RNext: "*",
		Seq:   read.String(),
		Qual:  "*",
	}
	if len(qual) == len(read) && len(qual) > 0 {
		rec.Qual = string(qual)
	}
	if !own.Found {
		rec.Flag |= FlagUnmapped
	} else {
		rec.RName = s.refName
		rec.Pos = own.RefBeg + 1
		rec.MapQ = MapQ(own.Score, 0, own.Hits, 1)
		if cigar != "" {
			rec.Cigar = cigar
		}
		if own.Rev {
			rec.Flag |= FlagReverse
			rec.Seq = read.RevComp().String()
			if rec.Qual != "*" {
				rec.Qual = reverseString(rec.Qual)
			}
		}
	}
	if mate.Found {
		rec.RNext = "="
		rec.PNext = mate.RefBeg + 1
		rec.TLen = tlen
	}
	_, err := fmt.Fprintln(s.w, rec.String())
	return err
}

// SQ is one reference sequence of a SAM header.
type SQ struct {
	Name string
	Len  int
}

// NewSAMWriterTargets writes a header with one @SQ line per target,
// for multi-chromosome assemblies. Records are emitted through
// WriteRecord with explicit RName fields.
func NewSAMWriterTargets(w io.Writer, targets []SQ) (*SAMWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "@HD\tVN:1.6\tSO:unknown\n"); err != nil {
		return nil, err
	}
	for _, t := range targets {
		if _, err := fmt.Fprintf(bw, "@SQ\tSN:%s\tLN:%d\n", t.Name, t.Len); err != nil {
			return nil, err
		}
	}
	if _, err := fmt.Fprintf(bw, "@PG\tID:nvwa\tPN:nvwa-align\n"); err != nil {
		return nil, err
	}
	return &SAMWriter{w: bw}, nil
}

// WriteRecord emits a fully-formed record.
func (s *SAMWriter) WriteRecord(rec SAMRecord) error {
	_, err := fmt.Fprintln(s.w, rec.String())
	return err
}
