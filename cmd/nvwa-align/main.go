// Command nvwa-align is the software reference aligner: it reads a
// FASTA reference and a FASTQ read set and prints one alignment per
// read as tab-separated values (name, strand, position, score, hits).
//
// Usage:
//
//	nvwa-align -ref ref.fa -reads reads.fq [-threads N]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"nvwa/internal/fmindex"
	"nvwa/internal/genome"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

func main() {
	refPath := flag.String("ref", "", "reference FASTA (required)")
	readsPath := flag.String("reads", "", "reads FASTQ (required)")
	threads := flag.Int("threads", 0, "worker threads (0 = all cores)")
	cigar := flag.Bool("cigar", false, "emit a CIGAR column (slower: full traceback per read)")
	sam := flag.Bool("sam", false, "emit SAM (with header, flags, MAPQ, CIGAR) instead of TSV")
	flag.Parse()
	if *refPath == "" || *readsPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	rf, err := os.Open(*refPath)
	if err != nil {
		fail(err)
	}
	asm, err := genome.ReadAssemblyFASTA(rf)
	rf.Close()
	if err != nil {
		fail(err)
	}
	if asm.Len() == 0 {
		fail(fmt.Errorf("reference %s has no bases", *refPath))
	}
	if asm.Len() > fmindex.MaxTextLen {
		fail(fmt.Errorf("reference %s (%d bp) exceeds the index limit of %d bp", *refPath, asm.Len(), fmindex.MaxTextLen))
	}
	// The aligner indexes the concatenation; outputs are translated
	// back to per-chromosome coordinates.
	ref := &genome.Reference{Name: asm.Chroms[0].Name, Seq: asm.Concat()}
	if len(asm.Chroms) > 1 {
		ref.Name = "assembly"
	}

	qf, err := os.Open(*readsPath)
	if err != nil {
		fail(err)
	}
	reads, err := genome.ReadFASTQ(qf)
	qf.Close()
	if err != nil {
		fail(err)
	}

	aligner := pipeline.New(ref.Seq, pipeline.DefaultOptions())

	seqs := make([]seq.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	results, mapq, tput := aligner.AlignAll(seqs, *threads)

	if *sam {
		if err := writeSAM(aligner, asm, reads, results, mapq); err != nil {
			fail(err)
		}
		aligned := 0
		for _, r := range results {
			if r.Found {
				aligned++
			}
		}
		fmt.Fprintf(os.Stderr, "aligned %d/%d reads against %s (%d bp) at %.0f reads/s\n",
			aligned, len(reads), ref.Name, len(ref.Seq), tput)
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	header := "#read\tstrand\tref_beg\tref_end\tscore\thits"
	if *cigar {
		header += "\tcigar"
	}
	fmt.Fprintln(w, header)
	aligned := 0
	for i, res := range results {
		if !res.Found {
			fmt.Fprintf(w, "%s\t*\t-1\t-1\t0\t0", reads[i].Name)
			if *cigar {
				fmt.Fprint(w, "\t*")
			}
			fmt.Fprintln(w)
			continue
		}
		aligned++
		strand := "+"
		if res.Rev {
			strand = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d", reads[i].Name, strand, res.RefBeg, res.RefEnd, res.Score, res.Hits)
		if *cigar {
			if tb, err := aligner.Cigar(reads[i].Seq, res); err == nil {
				fmt.Fprintf(w, "\t%s", tb.Cigar)
			} else {
				fmt.Fprint(w, "\t*")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(os.Stderr, "aligned %d/%d reads against %s (%d bp) at %.0f reads/s\n",
		aligned, len(reads), ref.Name, len(ref.Seq), tput)
}

// writeSAM emits full SAM records with traceback CIGARs, the MAPQ
// AlignAll estimated, and per-chromosome coordinates.
func writeSAM(aligner *pipeline.Aligner, asm *genome.Assembly, reads []genome.Read, results []pipeline.Result, mapq []int) error {
	var targets []pipeline.SQ
	for _, c := range asm.Chroms {
		targets = append(targets, pipeline.SQ{Name: c.Name, Len: len(c.Seq)})
	}
	w, err := pipeline.NewSAMWriterTargets(os.Stdout, targets)
	if err != nil {
		return err
	}
	for i, res := range results {
		rec := pipeline.SAMRecord{
			QName: reads[i].Name, RName: "*", Cigar: "*", RNext: "*",
			Seq: reads[i].Seq.String(), Qual: "*",
		}
		if len(reads[i].Qual) == len(reads[i].Seq) && len(reads[i].Qual) > 0 {
			rec.Qual = string(reads[i].Qual)
		}
		// Alignments crossing a chromosome boundary are concatenation
		// artifacts: report unmapped.
		if !res.Found || asm.Spans(res.RefBeg, res.RefEnd) {
			rec.Flag = pipeline.FlagUnmapped
		} else {
			chrom, local, err := asm.Translate(res.RefBeg)
			if err != nil {
				rec.Flag = pipeline.FlagUnmapped
			} else {
				rec.RName = chrom
				rec.Pos = local + 1
				if tb, err := aligner.Cigar(reads[i].Seq, res); err == nil {
					rec.Cigar = tb.Cigar.String()
				}
				rec.MapQ = mapq[i]
				if res.Rev {
					rec.Reverse(reads[i].Seq)
				}
			}
		}
		if err := w.WriteRecord(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nvwa-align:", err)
	os.Exit(1)
}
