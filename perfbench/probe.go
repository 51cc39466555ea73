package main

import "time"

// Host times are measured in probe-normalized time. On a shared host
// the other tenants slow this process's vCPUs, one or both, up to 1.8x
// for seconds to minutes at a time (a busy sibling hyperthread, as
// far as can be told from inside: a register-only loop of one dependent
// chain slows about 4%), and a 40 s run may see no idle moment at all.
// probe, a loop of eight independent register-only chains, slows with
// the simulator: over 200 s of short-live jobs each timed right after a
// probe, the job's raw median throughput in 20 s windows spread 16% and
// its median of job time over probe time spread 2-4%.
//
// Each timed unit (a job, a software block, a set-up) is therefore
// bracketed by probes, and its time is scaled by probeRef over the mean
// of the two probes: the time it would have taken on a host where the
// probe takes probeRef. A change to the simulator moves the unit's time
// and not the probe's, so it shows in full.

// probeRef is about the probe's time on an idle vCPU of the host the
// benchmark was tuned on (a 2-vCPU Intel Xeon guest), so that normalized
// figures read as that host's idle speed.
const probeRef = 460 * time.Microsecond

var probeSink uint64

// probe times about probeRef of eight independent register-only chains.
func probe() time.Duration {
	start := time.Now()
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for range 300_000 {
		a = a*6364136223846793005 + 1
		b ^= b << 13
		c = c*2862933555777941757 + 3
		d ^= d >> 7
		e += a ^ b
		f += c ^ d
		g ^= e + 11
		h += f ^ g
	}
	probeSink += a + b + c + d + e + f + g + h
	return time.Since(start)
}

// normalized scales d, bracketed by probes taking before and after, to
// a host where the probe takes probeRef.
func normalized(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*probeRef) / float64(before+after))
}
