// Command nvwa-genreads synthesises a reference genome and a read set
// (the repository's DWGSIM stand-in), writing <out>.fa and <out>.fq.
//
// Usage:
//
//	nvwa-genreads -out data/test [-reflen N] [-reads N] [-len N]
//	              [-profile human|hookeri|hudsonius|dromedarius|ellipsiformis|elegans]
//	              [-long] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"nvwa/internal/genome"
)

func main() {
	out := flag.String("out", "", "output path prefix (required)")
	refLen := flag.Int("reflen", 200000, "reference length (bp)")
	nReads := flag.Int("reads", 10000, "number of reads")
	readLen := flag.Int("len", 0, "read length (0 = profile default)")
	profile := flag.String("profile", "human", "genome profile")
	long := flag.Bool("long", false, "simulate 1 kbp long reads")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	profiles := map[string]genome.Profile{
		"human":         genome.HumanLike(),
		"hookeri":       genome.ClitarchusLike,
		"hudsonius":     genome.ZapusLike,
		"dromedarius":   genome.CamelusLike,
		"ellipsiformis": genome.VenustaLike,
		"elegans":       genome.ElegansLike,
	}
	p, ok := profiles[*profile]
	if !ok {
		fail(fmt.Errorf("unknown profile %q", *profile))
	}

	cfg := genome.ShortReadConfig(*seed + 1)
	if *long {
		cfg = genome.LongReadConfig(*seed + 1)
	}
	if *readLen > 0 {
		cfg.ReadLen = *readLen
	}
	if err := genome.CheckRefLen(*refLen, cfg.ReadLen); err != nil {
		fmt.Fprintln(os.Stderr, "nvwa-genreads: -reflen:", err)
		os.Exit(2)
	}
	ref := genome.Generate(p, *refLen, *seed)
	reads := genome.Simulate(ref, *nReads, cfg)

	ff, err := os.Create(*out + ".fa")
	if err != nil {
		fail(err)
	}
	if err := genome.WriteFASTA(ff, ref); err != nil {
		fail(err)
	}
	ff.Close()

	qf, err := os.Create(*out + ".fq")
	if err != nil {
		fail(err)
	}
	if err := genome.WriteFASTQ(qf, reads); err != nil {
		fail(err)
	}
	qf.Close()

	fmt.Fprintf(os.Stderr, "wrote %s.fa (%d bp, %s) and %s.fq (%d reads x %d bp)\n",
		*out, len(ref.Seq), ref.Name, *out, len(reads), cfg.ReadLen)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nvwa-genreads:", err)
	os.Exit(1)
}
