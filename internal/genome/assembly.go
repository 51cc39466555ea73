package genome

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"nvwa/internal/seq"
)

// Assembly is a multi-chromosome reference, the form real genomes take
// (the paper uses GRCh38 chromosomes 1-22, X, Y). Aligners index the
// concatenation and translate hit coordinates back to per-chromosome
// positions; Assembly provides both directions.
type Assembly struct {
	// Chroms are the member sequences in order.
	Chroms []*Reference
	// offsets[i] is the start of Chroms[i] in the concatenation.
	offsets []int
	concat  seq.Seq
}

// NewAssembly concatenates the chromosomes.
func NewAssembly(chroms []*Reference) (*Assembly, error) {
	if len(chroms) == 0 {
		return nil, fmt.Errorf("genome: empty assembly")
	}
	a := &Assembly{Chroms: chroms}
	names := map[string]bool{}
	for _, c := range chroms {
		if names[c.Name] {
			return nil, fmt.Errorf("genome: duplicate chromosome name %q", c.Name)
		}
		names[c.Name] = true
		a.offsets = append(a.offsets, len(a.concat))
		a.concat = append(a.concat, c.Seq...)
	}
	return a, nil
}

// Concat returns the concatenated sequence the aligner indexes.
func (a *Assembly) Concat() seq.Seq { return a.concat }

// Len returns the total assembly length.
func (a *Assembly) Len() int { return len(a.concat) }

// Translate converts a concatenation coordinate to (chromosome name,
// local position). Positions beyond the assembly return an error.
func (a *Assembly) Translate(pos int) (string, int, error) {
	if pos < 0 || pos >= len(a.concat) {
		return "", 0, fmt.Errorf("genome: position %d outside assembly of %d bp", pos, len(a.concat))
	}
	i := sort.Search(len(a.offsets), func(i int) bool { return a.offsets[i] > pos }) - 1
	return a.Chroms[i].Name, pos - a.offsets[i], nil
}

// Spans reports whether the interval [beg, end) crosses a chromosome
// boundary — alignments doing so are concatenation artifacts and must
// be filtered, exactly like junction hits in the FMD index.
func (a *Assembly) Spans(beg, end int) bool {
	if beg < 0 || end > len(a.concat) || beg >= end {
		return true
	}
	c1, _, err1 := a.Translate(beg)
	c2, _, err2 := a.Translate(end - 1)
	return err1 != nil || err2 != nil || c1 != c2
}

// ReadAssemblyFASTA parses every record of a multi-FASTA stream.
func ReadAssemblyFASTA(r io.Reader) (*Assembly, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var chroms []*Reference
	var name string
	var sb strings.Builder
	flush := func() {
		if name != "" {
			chroms = append(chroms, &Reference{Name: name, Seq: seq.Encode(sb.String())})
		}
		sb.Reset()
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ">") {
			flush()
			name = firstField(line[1:])
			continue
		}
		if name == "" {
			return nil, fmt.Errorf("genome: FASTA data before first header")
		}
		sb.WriteString(line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if len(chroms) == 0 {
		return nil, fmt.Errorf("genome: no FASTA records")
	}
	return NewAssembly(chroms)
}
