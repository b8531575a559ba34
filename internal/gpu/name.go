package gpu

import (
	"fmt"
	"strconv"
	"strings"

	"dcl1sim/internal/sim"
)

// A design's name is its value: Name prints a design from the table below and
// ParseDesign parses a name from the same table, so ParseDesign(d.Name())
// returns d for every design ParseDesign returns. A name is one head, which
// names the kind, then "+" modifiers in table order. DesignTopology rejects a
// design that sets a field no part of its kind prints, so Name is total on
// every design that builds.

// heads names each kind. ShY and ShY+CZ share the head "Sh<Y>": a name reads
// as ShY until a +C<Z> modifier makes it clustered.
var heads = []struct {
	tok  string
	kind DesignKind
	y    bool // followed by Y, the DC-L1 node count (DCL1s)
}{
	{"Baseline", Baseline, false},
	{"Pr", Private, true},
	{"Sh", Shared, true},
	{"Sh", Clustered, true},
	{"CDXBar", CDXBar, false},
	{"SingleL1", SingleL1, false},
	{"MeshBase", MeshBase, false},
}

// kindSet is a set of DesignKinds.
type kindSet uint8

func kinds(ks ...DesignKind) kindSet {
	var s kindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

const allKinds = kindSet(1<<(MeshBase+1) - 1)

func (s kindSet) has(k DesignKind) bool { return s&(1<<k) != 0 }

// A modifier is one "+" part of a name: pre<n>post when num, else pre alone.
// It applies to the kinds in kinds; get reads its value from a design (a
// plain part reads 0 or 1) and set writes a parsed one. A value of 0 or def
// is the machine's default: the name omits it, and parsing it sets nothing.
type modifier struct {
	pre, post string
	num       bool
	def       int
	lo, hi    int  // bounds on n: lo 0 means 1, hi 0 means none
	link      bool // an inter-module link parameter: needs +M<n>
	kinds     kindSet
	get       func(d Design) int
	set       func(d *Design, n int)
}

var modifiers = []modifier{
	{pre: "C", num: true, kinds: kinds(Shared, Clustered),
		get: func(d Design) int {
			if d.Kind != Clustered {
				return 0
			}
			return max(d.Clusters, 1)
		},
		set: func(d *Design, n int) { d.Kind, d.Clusters = Clustered, n }},
	{pre: "Boost", kinds: kinds(Private, Shared, Clustered),
		get: func(d Design) int { return b2i(d.Boost1) },
		set: func(d *Design, _ int) { d.Boost1 = true }},
	{post: "xL1", num: true, def: 1, hi: 64, kinds: allKinds,
		get: func(d Design) int { return d.L1CapacityScale },
		set: func(d *Design, n int) { d.L1CapacityScale = n }},
	{pre: "PerfectL1", kinds: allKinds,
		get: func(d Design) int { return b2i(d.PerfectL1) },
		set: func(d *Design, _ int) { d.PerfectL1 = true }},
	{pre: "2xNoC1", kinds: kinds(CDXBar),
		get: func(d Design) int { return b2i(d.Boost1 && !d.Boost2) },
		set: func(d *Design, _ int) { d.Boost1 = true }},
	{pre: "2xNoC", kinds: kinds(CDXBar),
		get: func(d Design) int { return b2i(d.Boost1 && d.Boost2) },
		set: func(d *Design, _ int) { d.Boost1, d.Boost2 = true, true }},
	{pre: "2xNoC", kinds: kinds(Baseline),
		get: func(d Design) int { return b2i(d.Boost2) },
		set: func(d *Design, _ int) { d.Boost2 = true }},
	{post: "xFlit", num: true, def: 1, hi: 64, kinds: allKinds,
		get: func(d Design) int { return d.FlitBytes / 32 },
		set: func(d *Design, n int) { d.FlitBytes = 32 * n }},
	{pre: "PF", num: true, hi: 16, kinds: allKinds,
		get: func(d Design) int { return d.PrefetchNext },
		set: func(d *Design, n int) { d.PrefetchNext = n }},
	{pre: "WB", kinds: allKinds,
		get: func(d Design) int { return b2i(d.L1WriteBack) },
		set: func(d *Design, _ int) { d.L1WriteBack = true }},
	{pre: "M", num: true, def: 1, lo: 2, hi: MaxModules, kinds: allKinds,
		get: func(d Design) int { return d.Modules },
		set: func(d *Design, n int) { d.Modules = n }},
	{pre: "G", num: true, def: DefaultLinkGBps, link: true, kinds: allKinds,
		get: func(d Design) int { return d.LinkGBps },
		set: func(d *Design, n int) { d.LinkGBps = n }},
	{pre: "Lat", num: true, def: int(DefaultLinkLat), link: true, kinds: allKinds,
		get: func(d Design) int { return int(d.LinkLat) },
		set: func(d *Design, n int) { d.LinkLat = sim.Cycle(n) }},
	{pre: "Priv", link: true, kinds: allKinds,
		get: func(d Design) int { return b2i(d.PrivateAS) },
		set: func(d *Design, _ int) { d.PrivateAS = true }},
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Name returns the paper's name for the design (e.g. "Sh40+C10+Boost",
// "CDXBar+2xNoC1", "Sh40+C10+M4+G128"); "?" for an unknown kind.
func (d Design) Name() string {
	var b strings.Builder
	for _, h := range heads {
		if h.kind == d.Kind {
			b.WriteString(h.tok)
			if h.y {
				b.WriteString(strconv.Itoa(d.DCL1s))
			}
			break
		}
	}
	if b.Len() == 0 {
		return "?"
	}
	for _, m := range modifiers {
		if v := m.get(d); m.kinds.has(d.Kind) && v > 0 && v != m.def {
			b.WriteString("+" + m.pre)
			if m.num {
				b.WriteString(strconv.Itoa(v))
			}
			b.WriteString(m.post)
		}
	}
	return b.String()
}

// ParseDesign is the inverse of Name. Heads: Baseline, Pr<Y>, Sh<Y>, CDXBar,
// SingleL1, MeshBase. Modifiers, with the kinds they apply to: +C<Z> (ShY),
// +Boost (PrY, ShY), +2xNoC1 (CDXBar), +2xNoC (CDXBar, Baseline), and on
// every kind +<k>xL1, +PerfectL1, +<k>xFlit, +PF<n>, +WB, +M<n> (2..8
// linked modules) and, with +M<n>, +G<n>, +Lat<n> and +Priv.
func ParseDesign(s string) (Design, error) {
	var d Design
	parts := strings.Split(s, "+")
	head := -1
	for i, h := range heads {
		if h.tok == parts[0] || h.y && strings.HasPrefix(parts[0], h.tok) {
			head = i
			break
		}
	}
	if head < 0 {
		return Design{}, fmt.Errorf("unknown design %q", s)
	}
	d.Kind = heads[head].kind
	if heads[head].y {
		n, err := strconv.Atoi(strings.TrimPrefix(parts[0], heads[head].tok))
		if err != nil || n <= 0 {
			return Design{}, fmt.Errorf("bad design %q: node count must be a positive integer", s)
		}
		d.DCL1s = n
	}
	link := false
	for _, p := range parts[1:] {
		m, n, err := parseModifier(p, d.Kind)
		if err != nil {
			return Design{}, fmt.Errorf("bad design %q: %w", s, err)
		}
		link = link || m.link
		if n != m.def {
			m.set(&d, n)
		}
	}
	if link && d.Modules < 2 {
		return Design{}, fmt.Errorf("bad design %q: link modifiers (+G/+Lat/+Priv) require +M2..+M%d", s, MaxModules)
	}
	return d, nil
}

// parseModifier finds the table row spelling p on kind k and p's value (1
// for a plain part).
func parseModifier(p string, k DesignKind) (modifier, int, error) {
	spelled := false
	for _, m := range modifiers {
		var n int
		switch {
		case !m.num && p == m.pre:
			n = 1
		case m.num && len(p) > len(m.pre)+len(m.post) && strings.HasPrefix(p, m.pre) && strings.HasSuffix(p, m.post):
			v, err := strconv.Atoi(p[len(m.pre) : len(p)-len(m.post)])
			if err != nil || v < max(m.lo, 1) || m.hi > 0 && v > m.hi {
				if m.hi > 0 {
					return modifier{}, 0, fmt.Errorf("modifier %q needs an integer in %d..%d", p, max(m.lo, 1), m.hi)
				}
				return modifier{}, 0, fmt.Errorf("modifier %q needs a positive integer", p)
			}
			n = v
		default:
			continue
		}
		spelled = true
		if m.kinds.has(k) {
			return m, n, nil
		}
	}
	if spelled {
		return modifier{}, 0, fmt.Errorf("modifier %q does not apply to a %s design", p, k)
	}
	return modifier{}, 0, fmt.Errorf("unknown modifier %q", p)
}

// named reports whether d, with defaults applied, is the design its name
// parses to on cfg: a field that no part of d's kind prints would run under
// a name that does not say so. CDXGroups and CDXMid are the crossbar's
// shape, like Cores, and stay out of the name.
func (d Design) named(cfg Config) error {
	p, err := ParseDesign(d.Name())
	if err != nil {
		return fmt.Errorf("gpu: design %+v: its name does not parse: %w", d, err)
	}
	p = p.withDefaults(cfg)
	p.CDXGroups, p.CDXMid = d.CDXGroups, d.CDXMid
	if p != d {
		return fmt.Errorf("gpu: design %+v sets a field its name %q does not show", d, d.Name())
	}
	return nil
}
