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
	if *nReads < 0 {
		usageError(fmt.Errorf("-reads %d: must not be negative", *nReads))
	}
	if *readLen < 0 {
		usageError(fmt.Errorf("-len %d: must not be negative", *readLen))
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
		usageError(fmt.Errorf("-profile: unknown profile %q", *profile))
	}

	cfg := genome.ShortReadConfig(*seed + 1)
	if *long {
		cfg = genome.LongReadConfig(*seed + 1)
	}
	if *readLen > 0 {
		cfg.ReadLen = *readLen
	}
	if err := genome.CheckRefLen(*refLen, cfg.ReadLen); err != nil {
		usageError(fmt.Errorf("-reflen: %w", err))
	}
	ref := genome.Generate(p, *refLen, *seed)
	reads := genome.Simulate(ref, *nReads, cfg)

	if err := writeFile(*out+".fa", func(f *os.File) error { return genome.WriteFASTA(f, ref) }); err != nil {
		fail(err)
	}
	if err := writeFile(*out+".fq", func(f *os.File) error { return genome.WriteFASTQ(f, reads) }); err != nil {
		fail(err)
	}

	fmt.Fprintf(os.Stderr, "wrote %s.fa (%d bp, %s) and %s.fq (%d reads x %d bp)\n",
		*out, len(ref.Seq), ref.Name, *out, len(reads), cfg.ReadLen)
}

// writeFile creates path, fills it with write, and closes it; a failed
// close is an error too, since it can lose buffered data.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usageError reports an invalid invocation and exits 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "nvwa-genreads:", err)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nvwa-genreads:", err)
	os.Exit(1)
}
