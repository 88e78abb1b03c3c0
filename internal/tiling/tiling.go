// Package tiling implements layer partitioning and DRAM access
// scheduling for CNN accelerators, following the tiled loop nest of the
// DRMap paper's Fig. 3. A Tiling fixes the outer-loop step sizes
// (Th, Tw, Tj, Ti; Tp = P and Tq = Q as in Algorithm 1), a Schedule
// fixes the outer-loop order through the reuse priority it implements,
// and the two together determine how many times each data tile travels
// between DRAM and the on-chip buffers - the SmartShuttle-style traffic
// model the DSE consumes.
package tiling

import (
	"fmt"
	"sort"

	"drmap/internal/accel"
	"drmap/internal/cnn"
)

// Schedule selects the reuse priority of the outer loops.
type Schedule int

const (
	// IfmsReuse keeps input-feature-map tiles resident (loop order
	// h, w, i with j innermost): ifms are fetched once.
	IfmsReuse Schedule = iota
	// WghsReuse keeps weight tiles resident (loop order j, i with h, w
	// innermost): weights are fetched once.
	WghsReuse
	// OfmsReuse keeps partial sums resident (loop order h, w, j with i
	// innermost): ofms are written once and never re-read.
	OfmsReuse
	// AdaptiveReuse picks, per layer, whichever of the three schedules
	// moves the fewest bytes (the SmartShuttle policy the paper cites).
	AdaptiveReuse
)

// Schedules lists the four schemes in the order of the paper's Fig. 9.
var Schedules = []Schedule{IfmsReuse, WghsReuse, OfmsReuse, AdaptiveReuse}

// String names the schedule as in the paper.
func (s Schedule) String() string {
	switch s {
	case IfmsReuse:
		return "ifms-reuse"
	case WghsReuse:
		return "wghs-reuse"
	case OfmsReuse:
		return "ofms-reuse"
	case AdaptiveReuse:
		return "adaptive-reuse"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Tiling is one layer partitioning: the outer-loop step sizes of Fig. 3.
type Tiling struct {
	Th int // ofms height step
	Tw int // ofms width step
	Tj int // ofms depth step
	Ti int // ifms depth step
}

// String renders the tiling compactly.
func (t Tiling) String() string {
	return fmt.Sprintf("Th=%d Tw=%d Tj=%d Ti=%d", t.Th, t.Tw, t.Tj, t.Ti)
}

// Validate checks the tiling against the layer bounds.
func (t Tiling) Validate(l cnn.Layer) error {
	check := func(name string, v, max int) error {
		if v < 1 || v > max {
			return fmt.Errorf("tiling: %s=%d outside [1,%d] for layer %s", name, v, max, l.Name)
		}
		return nil
	}
	if err := check("Th", t.Th, l.H); err != nil {
		return err
	}
	if err := check("Tw", t.Tw, l.W); err != nil {
		return err
	}
	if err := check("Tj", t.Tj, l.J); err != nil {
		return err
	}
	return check("Ti", t.Ti, l.I)
}

// ifmSpan returns the input rows/columns covered by an output tile span.
func ifmSpan(outSpan, stride, kernel int) int {
	return (outSpan-1)*stride + kernel
}

// IfmTileElems returns the element count of one full ifms tile.
func (t Tiling) IfmTileElems(l cnn.Layer) int64 {
	return int64(ifmSpan(t.Th, l.Stride, l.P)) * int64(ifmSpan(t.Tw, l.Stride, l.Q)) * int64(t.Ti)
}

// WgtTileElems returns the element count of one full weights tile.
func (t Tiling) WgtTileElems(l cnn.Layer) int64 {
	return int64(l.P) * int64(l.Q) * int64(t.Ti) * int64(t.Tj)
}

// OfmTileElems returns the element count of one full ofms tile.
func (t Tiling) OfmTileElems(l cnn.Layer) int64 {
	return int64(t.Th) * int64(t.Tw) * int64(t.Tj)
}

// Fits reports whether all three tiles fit their on-chip buffers.
func (t Tiling) Fits(l cnn.Layer, cfg accel.Config) bool {
	iB, wB, oB := cfg.BufElems()
	return t.IfmTileElems(l) <= iB && t.WgtTileElems(l) <= wB && t.OfmTileElems(l) <= oB
}

// divisors returns the positive divisors of n in ascending order.
func divisors(n int) []int {
	var ds []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
			if q := n / d; q != d {
				ds = append(ds, q)
			}
		}
	}
	sort.Ints(ds)
	return ds
}

// Enumerate returns every divisor-aligned tiling of the layer that fits
// the accelerator buffers, in deterministic order. Divisor alignment
// keeps tiles uniform (no remainder tiles), matching the step-size
// choices of Algorithm 1; the traffic model nevertheless handles
// non-divisor tilings exactly.
func Enumerate(l cnn.Layer, cfg accel.Config) []Tiling {
	var out []Tiling
	for _, th := range divisors(l.H) {
		for _, tw := range divisors(l.W) {
			for _, tj := range divisors(l.J) {
				for _, ti := range divisors(l.I) {
					t := Tiling{Th: th, Tw: tw, Tj: tj, Ti: ti}
					if t.Fits(l, cfg) {
						out = append(out, t)
					}
				}
			}
		}
	}
	return out
}

// TileGroup describes one set of identical DRAM tile streams: Loads
// streams of Elems elements each, in the given direction. The analytic
// EDP model prices each stream with the mapping policy's access-category
// counts.
type TileGroup struct {
	Elems int64
	Loads int64
	Write bool
}

// span describes tiles along one dimension: nFull tiles of size full
// plus an optional remainder tile.
type span struct {
	full  int
	nFull int64
	rem   int
}

func splitDim(total, step int) span {
	return span{full: step, nFull: int64(total / step), rem: total % step}
}

// spanSize is one distinct tile size along a span and how many tiles
// have it.
type spanSize struct {
	Size  int
	Count int64
}

// sizes returns the distinct (size, count) pairs of the span: the full
// tiles, then the remainder tile. An absent entry has Count 0, so loops
// over the pairs skip it (or add nothing) without allocating.
func (s span) sizes() [2]spanSize {
	out := [2]spanSize{{s.full, s.nFull}}
	if s.rem > 0 {
		out[1] = spanSize{s.rem, 1}
	}
	return out
}

// tiles returns the number of tiles along the span.
func (s span) tiles() int64 {
	n := s.nFull
	if s.rem > 0 {
		n++
	}
	return n
}

// TensorGroups keeps the tile streams of the three tensors separate,
// for analyses that attribute DRAM cost per data type.
type TensorGroups struct {
	Ifm []TileGroup
	Wgt []TileGroup
	Ofm []TileGroup
}

// TileGroups expands a (layer, tiling, schedule) combination into the
// distinct DRAM tile streams it generates for one batch of images,
// with exact edge-tile sizes. AdaptiveReuse resolves to the concrete
// schedule minimizing total traffic before expansion.
func TileGroups(l cnn.Layer, t Tiling, s Schedule, batch int) []TileGroup {
	return AppendTileGroups(nil, l, t, s, batch)
}

// TileGroupsByTensor is TileGroups with the per-tensor split retained.
func TileGroupsByTensor(l cnn.Layer, t Tiling, s Schedule, batch int) TensorGroups {
	all, nIfm, nWgt := appendTileGroups(nil, l, t, s, batch)
	return TensorGroups{
		Ifm: all[:nIfm:nIfm],
		Wgt: all[nIfm : nIfm+nWgt : nIfm+nWgt],
		Ofm: all[nIfm+nWgt:],
	}
}

// AppendTileGroups appends TileGroups(l, t, s, batch) to dst and
// returns the extended slice, so a caller expanding many tilings
// reuses one buffer (pass dst[:0]) instead of allocating per tiling.
func AppendTileGroups(dst []TileGroup, l cnn.Layer, t Tiling, s Schedule, batch int) []TileGroup {
	dst, _, _ = appendTileGroups(dst, l, t, s, batch)
	return dst
}

// appendTileGroups multiplies out one tiling's Split under schedule s:
// it appends the ifms, then weights, then ofms groups to dst and also
// reports how many ifms and weights groups it appended. An ofm tile
// size yields a read stream (when the schedule re-reads partial sums)
// followed by its write stream.
func appendTileGroups(dst []TileGroup, l cnn.Layer, t Tiling, s Schedule, batch int) (out []TileGroup, nIfm, nWgt int) {
	sp := SplitOf(l, t, batch)
	f := sp.Loads(s)
	for _, g := range sp.Ifm() {
		dst = append(dst, TileGroup{Elems: g.Elems, Loads: g.Tiles * f.Ifm})
	}
	for _, g := range sp.Wgt() {
		dst = append(dst, TileGroup{Elems: g.Elems, Loads: g.Tiles * f.Wgt})
	}
	for _, g := range sp.Ofm() {
		if f.OfmRead > 0 {
			dst = append(dst, TileGroup{Elems: g.Elems, Loads: g.Tiles * f.OfmRead})
		}
		dst = append(dst, TileGroup{Elems: g.Elems, Loads: g.Tiles * f.OfmWrite, Write: true})
	}
	return dst, len(sp.Ifm()), len(sp.Wgt())
}

// TileCount is one distinct tile size of a tensor: Tiles tiles of Elems
// elements each make up one pass over the tensor for a whole batch.
type TileCount struct {
	Elems int64
	Tiles int64
}

// Split is the schedule-free half of the tile-stream loop nest of one
// (layer, tiling, batch): each tensor's distinct tile sizes with their
// tile counts, plus the tile counts along the loop dimensions. Under a
// schedule every tile of a tensor travels the same number of times -
// the schedule's Loads - so a schedule's streams are a Split's tile
// counts times its load factors, and one Split serves every schedule.
// A dimension cuts into full tiles plus at most one remainder, so a
// tensor has at most 8 tile sizes and a Split is a fixed-size value
// that SplitOf fills without allocating.
type Split struct {
	ifm, ofm         [8]TileCount
	wgt              [4]TileCount
	nIfm, nWgt, nOfm int
	nhw, nj, ni      int64 // ofm-plane tiles, ofm-depth tiles, ifm-depth tiles
	// One pass over each tensor, in elements: the volumes each
	// schedule's traffic multiplies.
	ifmVol, wgtVol, ofmVol int64
}

// Loads is one fixed schedule's reuse factors: how many times each tile
// travels per batch - ifms and weights read, ofms read back as partial
// sums and written.
type Loads struct {
	Ifm, Wgt, OfmRead, OfmWrite int64
}

// SplitOf splits the layer's dimensions by the tiling and lists each
// tensor's tile sizes: ifms indexed by (h, w, i), one set per image;
// weights by (i, j), re-fetched per image because the batch loop is
// outermost in Fig. 3; ofms by (h, w, j) per image. Sizes with no tile
// are skipped.
func SplitOf(l cnn.Layer, t Tiling, batch int) Split {
	b := int64(batch)
	hs := splitDim(l.H, t.Th)
	ws := splitDim(l.W, t.Tw)
	js := splitDim(l.J, t.Tj)
	is := splitDim(l.I, t.Ti)
	sp := Split{nhw: hs.tiles() * ws.tiles(), nj: js.tiles(), ni: is.tiles()}
	hsz, wsz, jsz, isz := hs.sizes(), ws.sizes(), js.sizes(), is.sizes()
	for _, sh := range hsz {
		for _, sw := range wsz {
			for _, si := range isz {
				if tiles := sh.Count * sw.Count * si.Count; tiles != 0 {
					elems := int64(ifmSpan(sh.Size, l.Stride, l.P)) *
						int64(ifmSpan(sw.Size, l.Stride, l.Q)) * int64(si.Size)
					sp.ifm[sp.nIfm] = TileCount{Elems: elems, Tiles: tiles * b}
					sp.nIfm++
					sp.ifmVol += elems * tiles * b
				}
			}
		}
	}
	for _, si := range isz {
		for _, sj := range jsz {
			if tiles := si.Count * sj.Count; tiles != 0 {
				elems := int64(l.P) * int64(l.Q) * int64(si.Size) * int64(sj.Size)
				sp.wgt[sp.nWgt] = TileCount{Elems: elems, Tiles: tiles * b}
				sp.nWgt++
				sp.wgtVol += elems * tiles * b
			}
		}
	}
	for _, sh := range hsz {
		for _, sw := range wsz {
			for _, sj := range jsz {
				if tiles := sh.Count * sw.Count * sj.Count; tiles != 0 {
					elems := int64(sh.Size) * int64(sw.Size) * int64(sj.Size)
					sp.ofm[sp.nOfm] = TileCount{Elems: elems, Tiles: tiles * b}
					sp.nOfm++
					sp.ofmVol += elems * tiles * b
				}
			}
		}
	}
	return sp
}

// Ifm returns the ifms tile sizes, in (h, w, i) loop order.
func (sp *Split) Ifm() []TileCount { return sp.ifm[:sp.nIfm] }

// Wgt returns the weights tile sizes, in (i, j) loop order.
func (sp *Split) Wgt() []TileCount { return sp.wgt[:sp.nWgt] }

// Ofm returns the ofms tile sizes, in (h, w, j) loop order.
func (sp *Split) Ofm() []TileCount { return sp.ofm[:sp.nOfm] }

// Loads returns schedule s's load factors; AdaptiveReuse resolves to
// its fixed schedule first (Resolve).
func (sp *Split) Loads(s Schedule) Loads {
	if s == AdaptiveReuse {
		s = sp.Resolve()
	}
	switch s {
	case IfmsReuse:
		return Loads{Ifm: 1, Wgt: sp.nhw, OfmRead: sp.ni - 1, OfmWrite: sp.ni}
	case WghsReuse:
		return Loads{Ifm: sp.nj, Wgt: 1, OfmRead: sp.ni - 1, OfmWrite: sp.ni}
	case OfmsReuse:
		return Loads{Ifm: sp.nj, Wgt: sp.nhw, OfmRead: 0, OfmWrite: 1}
	default:
		panic(fmt.Sprintf("tiling: unresolved schedule %v", s))
	}
}

// traffic returns the element volumes under schedule s.
func (sp *Split) traffic(s Schedule) Traffic {
	f := sp.Loads(s)
	return Traffic{
		IfmReadElems: sp.ifmVol * f.Ifm, WgtReadElems: sp.wgtVol * f.Wgt,
		OfmReadElems: sp.ofmVol * f.OfmRead, OfmWriteElems: sp.ofmVol * f.OfmWrite,
		Resolved: s,
	}
}

// Resolve returns the fixed schedule with the least total traffic - how
// the paper's adaptive-reuse scheme chooses; a tie keeps the earlier of
// IfmsReuse, WghsReuse, OfmsReuse.
func (sp *Split) Resolve() Schedule {
	best := IfmsReuse
	bestElems := sp.traffic(IfmsReuse).TotalElems()
	for _, s := range [...]Schedule{WghsReuse, OfmsReuse} {
		if e := sp.traffic(s).TotalElems(); e < bestElems {
			best, bestElems = s, e
		}
	}
	return best
}

// Traffic aggregates the DRAM element volumes of a layer under a
// (tiling, schedule) pair.
type Traffic struct {
	IfmReadElems  int64
	WgtReadElems  int64
	OfmReadElems  int64
	OfmWriteElems int64
	// Resolved is the concrete schedule (AdaptiveReuse resolves to one
	// of the three fixed schemes).
	Resolved Schedule
}

// TotalElems sums all element movement.
func (tr Traffic) TotalElems() int64 {
	return tr.IfmReadElems + tr.WgtReadElems + tr.OfmReadElems + tr.OfmWriteElems
}

// Estimate computes the traffic of a layer under a tiling and schedule
// for one batch.
func Estimate(l cnn.Layer, t Tiling, s Schedule, batch int) Traffic {
	sp := SplitOf(l, t, batch)
	if s == AdaptiveReuse {
		s = sp.Resolve()
	}
	return sp.traffic(s)
}

// ResolveAdaptive returns the fixed schedule with the least total
// traffic for the layer and tiling, which is how the paper's
// adaptive-reuse scheme chooses per layer.
func ResolveAdaptive(l cnn.Layer, t Tiling, batch int) Schedule {
	sp := SplitOf(l, t, batch)
	return sp.Resolve()
}
