package experiments

import (
	"encoding/json"
	"hash/fnv"
	"runtime"
	"testing"

	"nvwa/internal/accel"
	"nvwa/internal/genome"
)

// TestReportDigestsPinned pins the FNV-64a hash of json.Marshal(Report)
// for a small short-read NvWa run and a small 1 kbp run on hardware
// fixed from the short-read pool, as in Fig. 14. The golden suites
// compare serial runs with parallel ones, so a model change that moves
// both alike passes them; it cannot pass this test. A change that
// moves a Report on purpose updates the pin and says which artifact
// moved.
func TestReportDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("Report digests are pinned on amd64; %s may fuse multiply-adds and round floats differently", runtime.GOARCH)
	}
	t.Parallel()
	short := NewEnv(30000, 300, 3)
	long := NewEnvProfile(genome.HumanLike(), genome.LongReadConfig(5), 30000, 20, 4)
	longOpts := long.NvWaOptions()
	longOpts.Config.EUClasses = short.Classes // as fig14Row does
	for _, tc := range []struct {
		name string
		rep  *accel.Report
		want uint64
	}{
		{"short-read NvWa", short.RunNvWa(), 0xe74f3c2b99d2d273},
		{"1 kbp NvWa", long.run(longOpts), 0x11c37662a71e2a9d},
	} {
		b, err := json.Marshal(tc.rep)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(b)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: Report digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
