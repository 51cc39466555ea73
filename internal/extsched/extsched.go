// Package extsched implements NvWa's Extension Scheduler (paper
// Sec. IV-C): the Hybrid Units Strategy that sizes a heterogeneous
// pool of systolic-array extension units from a hit-length
// distribution (Eq. 4-5), the interval classifier that maps a hit to
// its optimal unit class, and the Allocate Trigger that requests a
// Coordinator scheduling round when enough EUs sit idle.
package extsched

import (
	"fmt"

	"nvwa/internal/core"
	"nvwa/internal/obs"
)

// Distribution is a hit-length histogram summed per interval: entry i
// is the hit mass whose optimal unit class is i (the paper's s_i).
type Distribution []float64

// SolveHybrid solves the paper's Eq. (4)-(5): given the per-interval
// hit mass s, the unit sizes p (strictly increasing), and a total PE
// budget totalPEs, it returns the number of units of each class,
//
//	x_i = s_i * N / sum_j(p_j * s_j),
//
// rounded to integers such that the PE budget is not exceeded and
// every class with nonzero mass gets at least one unit. Leftover PEs
// are given to the classes with the largest rounding deficit.
func SolveHybrid(s Distribution, p []int, totalPEs int) ([]core.EUClass, error) {
	if len(s) != len(p) {
		return nil, fmt.Errorf("extsched: %d intervals but %d unit sizes", len(s), len(p))
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("extsched: no unit classes")
	}
	var denom float64
	var mass float64
	for i := range p {
		if p[i] <= 0 || (i > 0 && p[i] <= p[i-1]) {
			return nil, fmt.Errorf("extsched: unit sizes must be positive and strictly increasing")
		}
		if s[i] < 0 {
			return nil, fmt.Errorf("extsched: negative mass s[%d]", i)
		}
		denom += float64(p[i]) * s[i]
		mass += s[i]
	}
	if mass == 0 {
		return nil, fmt.Errorf("extsched: empty distribution")
	}
	if totalPEs < p[len(p)-1] {
		return nil, fmt.Errorf("extsched: budget %d cannot fit one unit of the largest class (%d PEs)", totalPEs, p[len(p)-1])
	}

	exact := make([]float64, len(p))
	x := make([]int, len(p))
	used := 0
	for i := range p {
		exact[i] = s[i] * float64(totalPEs) / denom
		x[i] = int(exact[i])
		if x[i] == 0 && s[i] > 0 {
			x[i] = 1 // every populated interval gets a unit
		}
		used += x[i] * p[i]
	}
	// Shrink if the minimum-one rule overshot the budget: first trim
	// classes above their exact share, then, if even one unit per class
	// does not fit, sacrifice the lowest-mass classes entirely.
	for used > totalPEs {
		worst, worstDef := -1, 0.0
		for i := range x {
			if x[i] <= 1 {
				continue
			}
			def := float64(x[i]) - exact[i]
			if worst == -1 || def > worstDef {
				worst, worstDef = i, def
			}
		}
		if worst == -1 {
			for i := range x {
				if x[i] == 0 {
					continue
				}
				if worst == -1 || s[i] < s[worst] || (s[i] == s[worst] && p[i] > p[worst]) {
					worst = i
				}
			}
			if worst == -1 {
				break
			}
		}
		x[worst]--
		used -= p[worst]
	}
	// Spend remaining budget on the classes with the largest fractional
	// deficit whose unit still fits.
	for {
		best, bestDef := -1, 0.0
		for i := range x {
			if used+p[i] > totalPEs {
				continue
			}
			def := exact[i] - float64(x[i])
			if best == -1 || def > bestDef {
				best, bestDef = i, def
			}
		}
		if best == -1 {
			break
		}
		x[best]++
		used += p[best]
	}

	out := make([]core.EUClass, len(p))
	for i := range p {
		out[i] = core.EUClass{PEs: p[i], Count: x[i]}
	}
	return out, nil
}

// PowerOfTwoSizes returns n unit sizes 16, 32, 64, ... (powers of two,
// as the paper's design-simplicity guideline prescribes), starting at
// base.
func PowerOfTwoSizes(n, base int) []int {
	out := make([]int, n)
	v := base
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// Classifier maps hit lengths to unit classes.
type Classifier struct {
	sizes []int
}

// NewClassifier builds a classifier over the pool's unit sizes
// (strictly increasing).
func NewClassifier(classes []core.EUClass) *Classifier {
	sizes := make([]int, len(classes))
	for i, c := range classes {
		sizes[i] = c.PEs
	}
	return &Classifier{sizes: sizes}
}

// OptimalClass returns the class index whose unit size is optimal for
// a hit of the given extension length: the smallest class whose PE
// count is >= the length (Formula 3 is minimised near P = length);
// lengths above the largest class map to the largest class.
func (c *Classifier) OptimalClass(hitLen int) int {
	for i, p := range c.sizes {
		if hitLen <= p {
			return i
		}
	}
	return len(c.sizes) - 1
}

// Histogram sums hit lengths into per-class mass, producing the s_i
// of Eq. (4) from observed data (the paper derives it from NA12878).
func (c *Classifier) Histogram(hitLens []int) Distribution {
	d := make(Distribution, len(c.sizes))
	for _, l := range hitLens {
		d[c.OptimalClass(l)]++
	}
	return d
}

// Trigger is the Allocate Trigger (paper Fig. 4): it watches the EU
// pool and requests a Coordinator scheduling round when the idle
// fraction reaches the configured threshold.
type Trigger struct {
	total     int
	threshold float64
	obs       *obs.Observer
}

// AttachObs wires an observer into the trigger so every consultation
// is counted (fired vs suppressed). A nil observer detaches.
func (t *Trigger) AttachObs(o *obs.Observer) { t.obs = o }

// NewTrigger builds a trigger for a pool of total EUs with the given
// idle-fraction threshold (paper: 0.15).
func NewTrigger(total int, threshold float64) *Trigger {
	if total <= 0 {
		panic("extsched: trigger needs at least one EU")
	}
	return &Trigger{total: total, threshold: threshold}
}

// ShouldSchedule reports whether idle EUs justify a scheduling round.
func (t *Trigger) ShouldSchedule(idle int) bool {
	return t.ShouldScheduleOf(idle, t.total)
}

// ShouldScheduleOf evaluates the trigger against an explicit pool
// size instead of the configured total. The fault-degraded scheduler
// consults it with the count of still-alive EUs, so the 15% idle
// threshold keeps firing even after permanent EU failures shrink the
// pool (a threshold anchored to the original total could starve the
// allocator once most units are dead). A non-positive total degrades
// to "any idle unit fires", which is the only liveness-safe answer
// for an empty pool.
func (t *Trigger) ShouldScheduleOf(idle, total int) bool {
	fired := idle > 0 && (total <= 0 || float64(idle) >= t.threshold*float64(total))
	if t.obs != nil {
		t.obs.TriggerEval(idle, fired)
	}
	return fired
}
