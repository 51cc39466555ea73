package mem

import (
	"math/rand"
	"testing"
)

func TestHBMRowHitFasterThanMiss(t *testing.T) {
	m := NewHBM(HBM1())
	first := m.Access(0, 0, 64)          // cold: row miss
	second := m.Access(first, 128, 64)   // same row: hit
	third := m.Access(second, 1<<20, 64) // far away: miss
	missLat := first - 0
	hitLat := second - first
	missLat2 := third - second
	if hitLat >= missLat {
		t.Errorf("row hit latency %d not faster than miss %d", hitLat, missLat)
	}
	if missLat2 != missLat {
		t.Errorf("two cold misses differ: %d vs %d", missLat2, missLat)
	}
	st := m.Stats()
	if st.Accesses != 3 || st.RowHits != 1 || st.RowMisses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHBMBandwidthQueueing(t *testing.T) {
	cfg := HBM1()
	cfg.Channels = 1
	cfg.BanksPerChannel = 1
	m := NewHBM(cfg)
	// Saturate the single bank: each 64 B access occupies the bus for
	// ceil(64/32)=2 cycles, so N back-to-back accesses issued at cycle 0
	// finish no earlier than 2N.
	var done int64
	for i := 0; i < 100; i++ {
		done = m.Access(0, int64(i)*4096, 64)
	}
	if done < 200 {
		t.Errorf("100 conflicting accesses done at %d, want >= 200 (bandwidth limit)", done)
	}
}

func TestHBMParallelChannels(t *testing.T) {
	m := NewHBM(HBM1())
	// Accesses mapped to different banks should not queue on each other.
	d1 := m.Access(0, 0, 32)
	d2 := m.Access(0, 2048, 32) // next row -> different bank
	if d2 > d1+1 {
		t.Errorf("independent banks serialized: %d then %d", d1, d2)
	}
}

func TestHBMEnergy(t *testing.T) {
	m := NewHBM(HBM1())
	m.Access(0, 0, 100)
	st := m.Stats()
	if want := float64(100*8) * 7; st.EnergyPJ != want {
		t.Errorf("energy = %v pJ, want %v", st.EnergyPJ, want)
	}
	if st.Bytes != 100 {
		t.Errorf("bytes = %d", st.Bytes)
	}
}

func TestHBMZeroByteAccess(t *testing.T) {
	m := NewHBM(HBM1())
	done := m.Access(5, 0, 0)
	if done <= 5 {
		t.Error("zero-byte access must still take time")
	}
}

func TestHBMCompletionMonotoneUnderLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewHBM(HBM1())
	var now int64
	for i := 0; i < 1000; i++ {
		done := m.Access(now, int64(rng.Intn(1<<24)), 32+rng.Intn(256))
		if done <= now {
			t.Fatalf("access %d completed at %d, issued at %d", i, done, now)
		}
		if rng.Intn(2) == 0 {
			now++
		}
	}
	st := m.Stats()
	if st.RowHits+st.RowMisses != st.Accesses {
		t.Errorf("hit+miss != accesses: %+v", st)
	}
}

func TestNewHBMPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHBM(HBMConfig{})
}
