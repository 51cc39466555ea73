package experiments

import (
	"strings"
	"testing"
)

func TestFrontEnds(t *testing.T) {
	env := getEnv(t)
	rows, err := FrontEndsWith(env, NewRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ThroughputKReads <= 0 || r.HitsPerRead <= 0 {
			t.Fatalf("front end %q produced nothing", r.Name)
		}
		// Both front ends must align the vast majority of reads.
		if r.Aligned < len(env.Reads)*80/100 {
			t.Errorf("%s aligned only %d/%d", r.Name, r.Aligned, len(env.Reads))
		}
	}
	if !strings.Contains(FormatFrontEnds(rows), "unified interface") {
		t.Error("format incomplete")
	}
}
