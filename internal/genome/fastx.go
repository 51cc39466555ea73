package genome

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"nvwa/internal/seq"
)

// WriteFASTA writes the reference in FASTA format with 70-column lines.
func WriteFASTA(w io.Writer, ref *Reference) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, ">%s\n", ref.Name); err != nil {
		return err
	}
	s := ref.Seq.String()
	for i := 0; i < len(s); i += 70 {
		end := i + 70
		if end > len(s) {
			end = len(s)
		}
		if _, err := fmt.Fprintln(bw, s[i:end]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFASTQ writes reads in 4-line FASTQ format.
func WriteFASTQ(w io.Writer, reads []Read) error {
	bw := bufio.NewWriter(w)
	for _, r := range reads {
		qual := r.Qual
		if len(qual) == 0 {
			qual = defaultQual(len(r.Seq))
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", r.Name, r.Seq.String(), qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// firstField returns the first whitespace-separated token of s, or
// "unnamed" when the header carries no name at all.
func firstField(s string) string {
	f := strings.Fields(s)
	if len(f) == 0 {
		return "unnamed"
	}
	return f[0]
}

func defaultQual(n int) []byte {
	q := make([]byte, n)
	for i := range q {
		q[i] = 'I'
	}
	return q
}

// ReadFASTQ parses all records of a FASTQ stream.
func ReadFASTQ(r io.Reader) ([]Read, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var reads []Read
	for sc.Scan() {
		header := strings.TrimSpace(sc.Text())
		if header == "" {
			continue
		}
		if !strings.HasPrefix(header, "@") {
			return nil, fmt.Errorf("genome: FASTQ record %d: header %q does not start with '@'", len(reads), header)
		}
		if !sc.Scan() {
			return nil, fmt.Errorf("genome: FASTQ record %d: truncated after header", len(reads))
		}
		bases := strings.TrimSpace(sc.Text())
		if !sc.Scan() {
			return nil, fmt.Errorf("genome: FASTQ record %d: missing separator line", len(reads))
		}
		if !sc.Scan() {
			return nil, fmt.Errorf("genome: FASTQ record %d: missing quality line", len(reads))
		}
		qual := strings.TrimSpace(sc.Text())
		if len(qual) != len(bases) {
			return nil, fmt.Errorf("genome: FASTQ record %d: quality length %d != sequence length %d", len(reads), len(qual), len(bases))
		}
		reads = append(reads, Read{
			ID:   len(reads),
			Name: firstField(header[1:]),
			Seq:  seq.Encode(bases),
			Qual: []byte(qual),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return reads, nil
}
