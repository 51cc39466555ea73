// Package fault provides deterministic, seeded fault injection for
// the NvWa accelerator model. A Plan is an explicit, ordered schedule
// of fault events (unit stalls, permanent unit failures, memory
// timeouts, buffer-pressure windows); a Spec generates Plans from a
// seed so chaos sweeps are reproducible bit-for-bit. The package is
// pure data + bookkeeping: it never schedules simulator events itself.
// The accelerator arms due events lazily from the engine's OnAdvance
// hook and consults the Injector at each decision point, so a nil
// Plan has exactly zero effect on the simulation.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the fault taxonomy.
type Kind uint8

const (
	// SUStall delays a seeding unit's current (or next) task by Dur
	// cycles: a transient pipeline hiccup.
	SUStall Kind = iota
	// SUFail permanently removes a seeding unit from service. Reads
	// in flight on the failed unit are re-seeded on surviving units.
	SUFail
	// EUStall delays an extension unit's current (or next) task by
	// Dur cycles.
	EUStall
	// EUFail permanently removes an extension unit from service. Hits
	// in flight on the failed unit are re-dispatched with bounded
	// retry and exponential backoff; after the retry budget they land
	// in the dead-letter ledger.
	EUFail
	// MemTimeout opens a window [Cycle, Cycle+Dur) during which
	// memory accesses complete no earlier than the window's end.
	MemTimeout
	// BufferPressure opens a window [Cycle, Cycle+Dur) during which
	// the Coordinator sheds incoming hits (with an explicit
	// drop-with-reason) whenever the staging buffer is at least half
	// full, modelling downstream backpressure.
	BufferPressure
	// ChipCrash kills an entire shard (a whole simulated chip) at
	// Cycle; Unit is the shard index. It is not injected by the
	// Injector at all: the sharded scale-out layer strips crashes
	// from the plan before partitioning (SplitChipCrashes) and
	// restarts the killed shard from its last periodic checkpoint, so
	// the merged Report is identical to the crash-free run and the
	// crash shows up only in the recovery ledger. accel.System
	// rejects plans that still contain one.
	ChipCrash

	numKinds
)

var kindNames = [numKinds]string{
	SUStall:        "su-stall",
	SUFail:         "su-fail",
	EUStall:        "eu-stall",
	EUFail:         "eu-fail",
	MemTimeout:     "mem-timeout",
	BufferPressure: "pressure",
	ChipCrash:      "chip-crash",
}

// String names the kind ("su-stall", "eu-fail", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString parses a kind name.
func KindFromString(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// UnitScoped reports whether the kind targets a specific unit (for
// ChipCrash the "unit" is the shard index).
func (k Kind) UnitScoped() bool {
	return k == SUStall || k == SUFail || k == EUStall || k == EUFail || k == ChipCrash
}

// HasDuration reports whether the kind carries a duration (stalls and
// windows do; permanent failures and crashes do not).
func (k Kind) HasDuration() bool {
	return k != SUFail && k != EUFail && k != ChipCrash
}

// Event is one scheduled fault.
type Event struct {
	// Kind is the fault class.
	Kind Kind
	// Cycle is the simulated cycle at which the fault arms.
	Cycle int64
	// Unit is the target unit index for unit-scoped kinds, -1 for
	// window kinds (MemTimeout, BufferPressure).
	Unit int
	// Dur is the stall length or window width in cycles; 0 for
	// permanent failures.
	Dur int64
}

// Validate checks internal consistency of one event.
func (e Event) Validate() error {
	if int(e.Kind) >= int(numKinds) {
		return fmt.Errorf("fault: invalid kind %d", int(e.Kind))
	}
	if e.Cycle < 0 {
		return fmt.Errorf("fault: %s event with negative cycle %d", e.Kind, e.Cycle)
	}
	if e.Kind.UnitScoped() {
		if e.Unit < 0 {
			return fmt.Errorf("fault: %s event needs a unit index", e.Kind)
		}
	} else if e.Unit != -1 {
		return fmt.Errorf("fault: %s event must use unit -1, got %d", e.Kind, e.Unit)
	}
	if e.Kind.HasDuration() {
		if e.Dur <= 0 {
			return fmt.Errorf("fault: %s event needs a positive duration, got %d", e.Kind, e.Dur)
		}
	} else if e.Dur != 0 {
		return fmt.Errorf("fault: %s event must not carry a duration, got %d", e.Kind, e.Dur)
	}
	return nil
}

// encode renders one event in the textual schedule format.
func (e Event) encode() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	b.WriteByte('@')
	b.WriteString(strconv.FormatInt(e.Cycle, 10))
	if e.Kind.UnitScoped() {
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(e.Unit))
	}
	if e.Kind.HasDuration() {
		b.WriteByte('+')
		b.WriteString(strconv.FormatInt(e.Dur, 10))
	}
	return b.String()
}

func parseEvent(s string) (Event, error) {
	var ev Event
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return ev, fmt.Errorf("fault: event %q missing '@cycle'", s)
	}
	k, err := KindFromString(s[:at])
	if err != nil {
		return ev, err
	}
	ev.Kind = k
	rest := s[at+1:]
	// Split off +dur first, then #unit, keeping field order strict:
	// kind@cycle[#unit][+dur].
	durStr := ""
	if i := strings.IndexByte(rest, '+'); i >= 0 {
		durStr = rest[i+1:]
		rest = rest[:i]
	}
	unitStr := ""
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		unitStr = rest[i+1:]
		rest = rest[:i]
	}
	ev.Cycle, err = strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return ev, fmt.Errorf("fault: event %q: bad cycle: %v", s, err)
	}
	ev.Unit = -1
	if k.UnitScoped() {
		if unitStr == "" {
			return ev, fmt.Errorf("fault: event %q: %s needs '#unit'", s, k)
		}
		ev.Unit, err = strconv.Atoi(unitStr)
		if err != nil {
			return ev, fmt.Errorf("fault: event %q: bad unit: %v", s, err)
		}
	} else if unitStr != "" {
		return ev, fmt.Errorf("fault: event %q: %s takes no '#unit'", s, k)
	}
	if k.HasDuration() {
		if durStr == "" {
			return ev, fmt.Errorf("fault: event %q: %s needs '+dur'", s, k)
		}
		ev.Dur, err = strconv.ParseInt(durStr, 10, 64)
		if err != nil {
			return ev, fmt.Errorf("fault: event %q: bad duration: %v", s, err)
		}
	} else if durStr != "" {
		return ev, fmt.Errorf("fault: event %q: %s takes no '+dur'", s, k)
	}
	if err := ev.Validate(); err != nil {
		return ev, err
	}
	return ev, nil
}

// Plan is an explicit fault schedule. The zero/nil Plan injects
// nothing.
type Plan struct {
	// Events is the schedule. Order is preserved by Encode/Parse;
	// Hash canonicalizes, so two orderings of the same multiset hash
	// identically.
	Events []Event
}

// Len is the number of scheduled events; nil-safe.
func (p *Plan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Events)
}

// Validate checks every event in the plan; nil-safe.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, ev := range p.Events {
		if err := ev.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// planVersion prefixes every encoded plan so CLI flags can
// distinguish explicit schedules from generator specs.
const planVersion = "v1"

// Encode renders the plan as a compact single-line schedule, e.g.
// "v1;su-stall@100#3+50;eu-fail@2000#7;pressure@3000+400". An empty
// plan encodes as "v1". Parse(Encode(p)) reproduces p exactly,
// including event order.
func (p *Plan) Encode() string {
	var b strings.Builder
	b.WriteString(planVersion)
	if p != nil {
		for _, ev := range p.Events {
			b.WriteByte(';')
			b.WriteString(ev.encode())
		}
	}
	return b.String()
}

// Parse decodes a schedule produced by Encode. It is strict: unknown
// kinds, malformed fields, or missing/extra components are errors.
func Parse(s string) (*Plan, error) {
	parts := strings.Split(s, ";")
	if parts[0] != planVersion {
		return nil, fmt.Errorf("fault: plan must start with %q, got %q", planVersion, parts[0])
	}
	p := &Plan{}
	for _, part := range parts[1:] {
		if part == "" {
			return nil, fmt.Errorf("fault: empty event in plan %q", s)
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, ev)
	}
	return p, nil
}

// canonical returns the events sorted by (Cycle, Kind, Unit, Dur).
func (p *Plan) canonical() []Event {
	evs := append([]Event(nil), p.Events...)
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		return a.Dur < b.Dur
	})
	return evs
}

// failClass maps a transient kind to the permanent-failure kind that
// would make it meaningless (SUStall→SUFail, EUStall→EUFail).
func failClass(k Kind) (Kind, bool) {
	switch k {
	case SUStall:
		return SUFail, true
	case EUStall:
		return EUFail, true
	}
	return 0, false
}

// CheckConflicts rejects contradictory schedules: a stall targeting a
// unit strictly after that unit's permanent failure can never take
// effect (the injector would let it expire), so a plan stating both
// is contradictory, and a duplicated chip-crash of the same shard at
// the same cycle is a double-kill. Benign overlaps — stacked stalls,
// repeated failures of an already-dead unit — are not errors; they
// canonicalize away via Normalize. Nil-safe.
func (p *Plan) CheckConflicts() error {
	if p.Len() == 0 {
		return nil
	}
	type uk struct {
		kind Kind
		unit int
	}
	earliestFail := map[uk]Event{}
	crashes := map[uk]Event{}
	for _, ev := range p.Events {
		switch ev.Kind {
		case SUFail, EUFail:
			k := uk{ev.Kind, ev.Unit}
			if cur, ok := earliestFail[k]; !ok || ev.Cycle < cur.Cycle {
				earliestFail[k] = ev
			}
		case ChipCrash:
			k := uk{ChipCrash, ev.Unit}
			if prev, ok := crashes[k]; ok && prev.Cycle == ev.Cycle {
				return fmt.Errorf("fault: contradictory plan: duplicate %s kills shard %d twice at the same cycle", ev.encode(), ev.Unit)
			}
			crashes[k] = ev
		}
	}
	for _, ev := range p.Events {
		fk, ok := failClass(ev.Kind)
		if !ok {
			continue
		}
		if f, found := earliestFail[uk{fk, ev.Unit}]; found && ev.Cycle > f.Cycle {
			return fmt.Errorf("fault: contradictory plan: %s targets unit %d after its permanent failure %s", ev.encode(), ev.Unit, f.encode())
		}
	}
	return nil
}

// Normalize returns the deterministic canonical form of the plan:
// events sorted by (Cycle, Kind, Unit, Dur), exact duplicates of
// permanent kinds collapsed, and re-failures of an already-failed
// unit dropped (the injector treats them as no-ops, so the canonical
// schedule states each failure once, at its earliest cycle).
// Contradictory schedules (see CheckConflicts) are rejected. Two
// plans describing the same effective schedule normalize to the same
// event list — and therefore the same Encode string and Hash.
// Nil-safe; a nil or empty plan normalizes to itself.
func (p *Plan) Normalize() (*Plan, error) {
	if p.Len() == 0 {
		return p, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.CheckConflicts(); err != nil {
		return nil, err
	}
	type uk struct {
		kind Kind
		unit int
	}
	failSeen := map[uk]bool{}
	out := &Plan{Events: make([]Event, 0, len(p.Events))}
	for _, ev := range p.canonical() {
		switch ev.Kind {
		case SUFail, EUFail:
			// Canonical order visits the earliest failure first;
			// later re-failures of the same unit are no-ops.
			k := uk{ev.Kind, ev.Unit}
			if failSeen[k] {
				continue
			}
			failSeen[k] = true
		case ChipCrash:
			// Same shard crashing at distinct cycles is a legitimate
			// repeated-crash schedule; exact duplicates were rejected
			// by CheckConflicts. Stalls and windows stack (their
			// effects are additive), so duplicates there are kept.
		}
		out.Events = append(out.Events, ev)
	}
	return out, nil
}

// Hash is a stable FNV-1a digest of the canonicalized plan. A nil or
// empty plan hashes to 0, so "no faults" always keys identically
// regardless of how the absence is expressed. The hash binds a
// checkpoint to its plan (ckpt.Checkpoint.PlanHash: accel.Restore
// refuses a different one) and identifies the plan in every fault
// ledger (Summary.PlanHash, stamped on a sharded run's merged ledger
// with the hash of the plan left after its chip crashes).
func (p *Plan) Hash() uint64 {
	if p.Len() == 0 {
		return 0
	}
	h := fnv.New64a()
	for _, ev := range p.canonical() {
		fmt.Fprintf(h, "%d|%d|%d|%d;", ev.Kind, ev.Cycle, ev.Unit, ev.Dur)
	}
	return h.Sum64()
}

// Spec is a seeded fault-plan generator: the reproducible way to
// drive chaos sweeps. Generate with the same Spec and unit counts is
// bit-for-bit deterministic.
type Spec struct {
	// Seed seeds the generator RNG.
	Seed int64
	// Horizon bounds fault arm cycles to [1, Horizon]. Default 1e6.
	Horizon int64
	// Counts per kind.
	SUStalls    int
	SUFails     int
	EUStalls    int
	EUFails     int
	MemTimeouts int
	Pressures   int
	// MeanStall is the mean stall duration in cycles (default 256);
	// actual durations are uniform in [1, 2*MeanStall].
	MeanStall int64
	// MeanWindow is the mean window width for mem-timeout and
	// pressure events (default 1024); uniform in [1, 2*MeanWindow].
	MeanWindow int64
}

// DefaultSpec returns a mixed-fault template suitable for smoke-level
// chaos sweeps.
func DefaultSpec(seed int64) Spec {
	return Spec{
		Seed:        seed,
		Horizon:     1_000_000,
		SUStalls:    3,
		SUFails:     1,
		EUStalls:    4,
		EUFails:     2,
		MemTimeouts: 2,
		Pressures:   1,
		MeanStall:   256,
		MeanWindow:  1024,
	}
}

func (s Spec) withDefaults() Spec {
	if s.Horizon <= 0 {
		s.Horizon = 1_000_000
	}
	if s.MeanStall <= 0 {
		s.MeanStall = 256
	}
	if s.MeanWindow <= 0 {
		s.MeanWindow = 1024
	}
	return s
}

// Generate produces the deterministic plan for this spec over a
// machine with the given unit counts. The result is canonicalized
// (sorted by cycle) so injection order is independent of generation
// order.
func (s Spec) Generate(numSUs, numEUs int) *Plan {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	p := &Plan{}
	add := func(kind Kind, count, units int) {
		for i := 0; i < count; i++ {
			ev := Event{Kind: kind, Cycle: 1 + rng.Int63n(s.Horizon), Unit: -1}
			if kind.UnitScoped() {
				if units <= 0 {
					continue
				}
				ev.Unit = rng.Intn(units)
			}
			if kind.HasDuration() {
				mean := s.MeanStall
				if !kind.UnitScoped() {
					mean = s.MeanWindow
				}
				ev.Dur = 1 + rng.Int63n(2*mean)
			}
			p.Events = append(p.Events, ev)
		}
	}
	// Fixed kind order keeps the RNG stream stable across calls.
	add(SUStall, s.SUStalls, numSUs)
	add(SUFail, s.SUFails, numSUs)
	add(EUStall, s.EUStalls, numEUs)
	add(EUFail, s.EUFails, numEUs)
	add(MemTimeout, s.MemTimeouts, 0)
	add(BufferPressure, s.Pressures, 0)
	p.Events = p.canonical()
	return p
}

// String renders the spec in the key=value form accepted by
// ParseSpec.
func (s Spec) String() string {
	s = s.withDefaults()
	return fmt.Sprintf(
		"seed=%d,horizon=%d,su-stall=%d,su-fail=%d,eu-stall=%d,eu-fail=%d,mem-timeout=%d,pressure=%d,mean-stall=%d,mean-window=%d",
		s.Seed, s.Horizon, s.SUStalls, s.SUFails, s.EUStalls, s.EUFails,
		s.MemTimeouts, s.Pressures, s.MeanStall, s.MeanWindow)
}

// ParseSpec parses "seed=7,su-fail=2,..." into a Spec. Unknown keys,
// duplicate keys, and malformed values are errors (no silent
// defaults for typos, no silent last-wins for repeats); omitted keys
// keep their zero/default values.
func ParseSpec(in string) (Spec, error) {
	var s Spec
	if strings.TrimSpace(in) == "" {
		return s, fmt.Errorf("fault: empty spec")
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(in, ",") {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return s, fmt.Errorf("fault: spec field %q is not key=value", kv)
		}
		key, val := strings.TrimSpace(kv[:eq]), strings.TrimSpace(kv[eq+1:])
		if seen[key] {
			return s, fmt.Errorf("fault: spec key %q given twice (a repeat would silently override the first value)", key)
		}
		seen[key] = true
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return s, fmt.Errorf("fault: spec %s: bad value %q: %v", key, val, err)
		}
		if n < 0 {
			return s, fmt.Errorf("fault: spec %s: negative value %d", key, n)
		}
		switch key {
		case "seed":
			s.Seed = n
		case "horizon":
			s.Horizon = n
		case "su-stall":
			s.SUStalls = int(n)
		case "su-fail":
			s.SUFails = int(n)
		case "eu-stall":
			s.EUStalls = int(n)
		case "eu-fail":
			s.EUFails = int(n)
		case "mem-timeout":
			s.MemTimeouts = int(n)
		case "pressure":
			s.Pressures = int(n)
		case "mean-stall":
			s.MeanStall = n
		case "mean-window":
			s.MeanWindow = n
		default:
			return s, fmt.Errorf("fault: unknown spec key %q", key)
		}
	}
	return s, nil
}
