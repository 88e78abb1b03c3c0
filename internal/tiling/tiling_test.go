package tiling

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"drmap/internal/accel"
	"drmap/internal/cnn"
)

func alexConv2(t *testing.T) cnn.Layer {
	t.Helper()
	return cnn.AlexNet().Layers[1] // 27x27x256 ofm, I=96, 5x5 s1 p2
}

func TestScheduleStrings(t *testing.T) {
	cases := map[Schedule]string{
		IfmsReuse:     "ifms-reuse",
		WghsReuse:     "wghs-reuse",
		OfmsReuse:     "ofms-reuse",
		AdaptiveReuse: "adaptive-reuse",
		Schedule(9):   "Schedule(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Schedule(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestTilingValidate(t *testing.T) {
	l := alexConv2(t)
	good := Tiling{Th: 27, Tw: 9, Tj: 64, Ti: 32}
	if err := good.Validate(l); err != nil {
		t.Errorf("valid tiling rejected: %v", err)
	}
	bads := []Tiling{
		{Th: 0, Tw: 1, Tj: 1, Ti: 1},
		{Th: 28, Tw: 1, Tj: 1, Ti: 1},
		{Th: 1, Tw: 28, Tj: 1, Ti: 1},
		{Th: 1, Tw: 1, Tj: 257, Ti: 1},
		{Th: 1, Tw: 1, Tj: 1, Ti: 97},
	}
	for _, b := range bads {
		if err := b.Validate(l); err == nil {
			t.Errorf("invalid tiling accepted: %v", b)
		}
	}
}

func TestTileElems(t *testing.T) {
	l := alexConv2(t) // stride 1, P=Q=5
	tl := Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}
	// ifm tile: (9-1)*1+5 = 13 per spatial dim.
	if got := tl.IfmTileElems(l); got != 13*13*16 {
		t.Errorf("ifm tile = %d, want %d", got, 13*13*16)
	}
	if got := tl.WgtTileElems(l); got != 5*5*16*32 {
		t.Errorf("wgt tile = %d, want %d", got, 5*5*16*32)
	}
	if got := tl.OfmTileElems(l); got != 9*9*32 {
		t.Errorf("ofm tile = %d, want %d", got, 9*9*32)
	}
}

func TestStridedIfmTile(t *testing.T) {
	l := cnn.AlexNet().Layers[0] // stride 4, 11x11
	tl := Tiling{Th: 5, Tw: 5, Tj: 8, Ti: 3}
	// (5-1)*4+11 = 27 per spatial dim.
	if got := tl.IfmTileElems(l); got != 27*27*3 {
		t.Errorf("strided ifm tile = %d, want %d", got, 27*27*3)
	}
}

func TestFitsRespectsEachBuffer(t *testing.T) {
	l := alexConv2(t)
	cfg := accel.TableII()
	if !(Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}).Fits(l, cfg) {
		t.Error("small tiling should fit 64KB buffers")
	}
	// 27x27 ofm tile with Tj=256 = 186624 elements > 64K: oB overflow.
	if (Tiling{Th: 27, Tw: 27, Tj: 256, Ti: 1}).Fits(l, cfg) {
		t.Error("oB-overflowing tiling accepted")
	}
	// Weights: 5*5*96*256 = 614400 > 64K: wB overflow.
	if (Tiling{Th: 1, Tw: 1, Tj: 256, Ti: 96}).Fits(l, cfg) {
		t.Error("wB-overflowing tiling accepted")
	}
}

func TestEnumerateAllFitAndDivide(t *testing.T) {
	l := alexConv2(t)
	cfg := accel.TableII()
	tilings := Enumerate(l, cfg)
	if len(tilings) == 0 {
		t.Fatal("no tilings enumerated for AlexNet CONV2")
	}
	for _, tl := range tilings {
		if !tl.Fits(l, cfg) {
			t.Fatalf("enumerated tiling %v does not fit", tl)
		}
		if l.H%tl.Th != 0 || l.W%tl.Tw != 0 || l.J%tl.Tj != 0 || l.I%tl.Ti != 0 {
			t.Fatalf("enumerated tiling %v not divisor-aligned", tl)
		}
	}
}

func TestEnumerateCoversEveryAlexNetLayer(t *testing.T) {
	cfg := accel.TableII()
	for _, l := range cnn.AlexNet().Layers {
		if got := len(Enumerate(l, cfg)); got == 0 {
			t.Errorf("layer %s: no feasible tilings", l.Name)
		}
	}
}

func TestOfmsReuseWritesOfmsExactlyOnce(t *testing.T) {
	l := alexConv2(t)
	tl := Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}
	tr := Estimate(l, tl, OfmsReuse, 1)
	if tr.OfmWriteElems != l.OfmElems() {
		t.Errorf("ofms-reuse writes = %d, want %d", tr.OfmWriteElems, l.OfmElems())
	}
	if tr.OfmReadElems != 0 {
		t.Errorf("ofms-reuse reads ofms %d times, want 0", tr.OfmReadElems)
	}
}

func TestWghsReuseFetchesWeightsOnce(t *testing.T) {
	l := alexConv2(t)
	tl := Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}
	tr := Estimate(l, tl, WghsReuse, 1)
	if tr.WgtReadElems != l.WgtElems() {
		t.Errorf("wghs-reuse weight traffic = %d, want %d", tr.WgtReadElems, l.WgtElems())
	}
}

func TestIfmsReuseFetchesIfmsOnce(t *testing.T) {
	l := alexConv2(t)
	// Full-width tiles eliminate halo overlap in W; Th=27 full height.
	tl := Tiling{Th: 27, Tw: 27, Tj: 16, Ti: 8}
	tr := Estimate(l, tl, IfmsReuse, 1)
	// One load per ifm tile: total = sum of tile elems, which for the
	// full spatial tile is the (unpadded) receptive field of the layer.
	wantSpan := int64((27-1)*1 + 5)
	want := wantSpan * wantSpan * int64(l.I)
	if tr.IfmReadElems != want {
		t.Errorf("ifms-reuse ifm traffic = %d, want %d", tr.IfmReadElems, want)
	}
}

func TestHaloGrowsIfmTraffic(t *testing.T) {
	l := alexConv2(t)
	coarse := Estimate(l, Tiling{Th: 27, Tw: 27, Tj: 16, Ti: 8}, IfmsReuse, 1)
	fine := Estimate(l, Tiling{Th: 3, Tw: 3, Tj: 16, Ti: 8}, IfmsReuse, 1)
	if fine.IfmReadElems <= coarse.IfmReadElems {
		t.Errorf("finer spatial tiling should increase halo traffic: %d vs %d",
			fine.IfmReadElems, coarse.IfmReadElems)
	}
}

func TestTrafficScalesWithBatch(t *testing.T) {
	l := alexConv2(t)
	tl := Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}
	for _, s := range []Schedule{IfmsReuse, WghsReuse, OfmsReuse} {
		one := Estimate(l, tl, s, 1)
		four := Estimate(l, tl, s, 4)
		if four.TotalElems() != 4*one.TotalElems() {
			t.Errorf("%v: batch-4 traffic %d != 4x batch-1 %d", s, four.TotalElems(), one.TotalElems())
		}
	}
}

func TestPartialSumSpillsGrowWithITiles(t *testing.T) {
	l := alexConv2(t)
	few := Estimate(l, Tiling{Th: 9, Tw: 9, Tj: 16, Ti: 96}, WghsReuse, 1)
	many := Estimate(l, Tiling{Th: 9, Tw: 9, Tj: 16, Ti: 8}, WghsReuse, 1)
	if few.OfmReadElems != 0 {
		t.Errorf("single i-tile should spill no partial sums, got %d", few.OfmReadElems)
	}
	if many.OfmReadElems == 0 || many.OfmWriteElems <= few.OfmWriteElems {
		t.Errorf("many i-tiles should spill partial sums: reads=%d writes=%d vs writes=%d",
			many.OfmReadElems, many.OfmWriteElems, few.OfmWriteElems)
	}
}

func TestAdaptiveNeverWorseThanFixed(t *testing.T) {
	cfg := accel.TableII()
	for _, l := range cnn.AlexNet().Layers {
		tilings := Enumerate(l, cfg)
		if len(tilings) > 50 {
			tilings = tilings[:50]
		}
		for _, tl := range tilings {
			adaptive := Estimate(l, tl, AdaptiveReuse, 1).TotalElems()
			for _, s := range []Schedule{IfmsReuse, WghsReuse, OfmsReuse} {
				if fixed := Estimate(l, tl, s, 1).TotalElems(); adaptive > fixed {
					t.Fatalf("layer %s tiling %v: adaptive (%d) worse than %v (%d)",
						l.Name, tl, adaptive, s, fixed)
				}
			}
		}
	}
}

func TestResolveAdaptiveReturnsFixedSchedule(t *testing.T) {
	l := alexConv2(t)
	s := ResolveAdaptive(l, Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}, 1)
	if s == AdaptiveReuse {
		t.Error("ResolveAdaptive returned AdaptiveReuse")
	}
}

func TestTileGroupsConsistentWithEstimate(t *testing.T) {
	// The grouped tile streams must account for exactly the volumes the
	// closed-form traffic model reports.
	cfg := accel.TableII()
	for _, l := range cnn.AlexNet().Layers {
		tilings := Enumerate(l, cfg)
		step := len(tilings)/10 + 1
		for i := 0; i < len(tilings); i += step {
			tl := tilings[i]
			for _, s := range []Schedule{IfmsReuse, WghsReuse, OfmsReuse} {
				tr := Estimate(l, tl, s, 1)
				var reads, writes int64
				for _, g := range TileGroups(l, tl, s, 1) {
					if g.Write {
						writes += g.Elems * g.Loads
					} else {
						reads += g.Elems * g.Loads
					}
				}
				wantReads := tr.IfmReadElems + tr.WgtReadElems + tr.OfmReadElems
				if reads != wantReads {
					t.Fatalf("%s %v %v: grouped reads %d != estimate %d", l.Name, tl, s, reads, wantReads)
				}
				if writes != tr.OfmWriteElems {
					t.Fatalf("%s %v %v: grouped writes %d != estimate %d", l.Name, tl, s, writes, tr.OfmWriteElems)
				}
			}
		}
	}
}

func TestNonDivisorTilingHandledExactly(t *testing.T) {
	// 27 split by 10: two full tiles and a remainder of 7.
	l := alexConv2(t)
	tl := Tiling{Th: 10, Tw: 27, Tj: 256, Ti: 96}
	tr := Estimate(l, tl, OfmsReuse, 1)
	if tr.OfmWriteElems != l.OfmElems() {
		t.Errorf("remainder tiling loses ofm elements: %d != %d", tr.OfmWriteElems, l.OfmElems())
	}
	// ifm traffic: rows covered = 2 full tiles of (10-1)+5=14 and one of
	// (7-1)+5=11 -> 39 rows x 27 cols (full width tile = 31 wide though:
	// (27-1)+5=31) x 96 channels, times Nj=1.
	want := int64(14+14+11) * 31 * 96
	if tr.IfmReadElems != want {
		t.Errorf("remainder ifm traffic = %d, want %d", tr.IfmReadElems, want)
	}
}

func TestFCLayerTiling(t *testing.T) {
	l := cnn.AlexNet().Layers[5] // FC6 9216->4096
	cfg := accel.TableII()
	tilings := Enumerate(l, cfg)
	if len(tilings) == 0 {
		t.Fatal("no tilings for FC6")
	}
	tl := Tiling{Th: 1, Tw: 1, Tj: 1024, Ti: 64}
	tr := Estimate(l, tl, WghsReuse, 1)
	if tr.WgtReadElems != l.WgtElems() {
		t.Errorf("FC6 wghs-reuse weights = %d, want %d", tr.WgtReadElems, l.WgtElems())
	}
	// FC traffic is weight-dominated.
	if tr.WgtReadElems < 10*tr.IfmReadElems {
		t.Errorf("FC6 should be weight-dominated: wgt=%d ifm=%d", tr.WgtReadElems, tr.IfmReadElems)
	}
}

func TestTrafficNonNegativeProperty(t *testing.T) {
	l := alexConv2(t)
	f := func(th, tw, tj, ti uint8, sIdx uint8, batch uint8) bool {
		tl := Tiling{
			Th: 1 + int(th)%l.H,
			Tw: 1 + int(tw)%l.W,
			Tj: 1 + int(tj)%l.J,
			Ti: 1 + int(ti)%l.I,
		}
		s := []Schedule{IfmsReuse, WghsReuse, OfmsReuse, AdaptiveReuse}[sIdx%4]
		b := 1 + int(batch)%4
		tr := Estimate(l, tl, s, b)
		if tr.IfmReadElems < 0 || tr.WgtReadElems < 0 || tr.OfmReadElems < 0 || tr.OfmWriteElems < 0 {
			return false
		}
		// Any schedule must move at least the compulsory traffic.
		min := int64(b) * (l.OfmElems())
		return tr.TotalElems() >= min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
}

func TestGroupsPositiveProperty(t *testing.T) {
	l := cnn.AlexNet().Layers[2]
	f := func(th, tj, ti uint8) bool {
		tl := Tiling{
			Th: 1 + int(th)%l.H,
			Tw: l.W,
			Tj: 1 + int(tj)%l.J,
			Ti: 1 + int(ti)%l.I,
		}
		for _, g := range TileGroups(l, tl, OfmsReuse, 1) {
			if g.Elems <= 0 || g.Loads <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}

func TestDivisors(t *testing.T) {
	got := divisors(27)
	want := []int{1, 3, 9, 27}
	if len(got) != len(want) {
		t.Fatalf("divisors(27) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divisors(27) = %v, want %v", got, want)
		}
	}
	if d := divisors(96); len(d) != 12 {
		t.Errorf("divisors(96) count = %d, want 12", len(d))
	}
}

func TestTilingString(t *testing.T) {
	s := Tiling{Th: 1, Tw: 2, Tj: 3, Ti: 4}.String()
	if s != "Th=1 Tw=2 Tj=3 Ti=4" {
		t.Errorf("Tiling.String() = %q", s)
	}
}

// TestAppendTileGroupsMatchesTileGroups: the append-style expansion
// into a reused, dirty buffer yields exactly TileGroups (order
// included) after the prefix it was given, and the per-tensor split
// concatenates back to the same sequence - on remainder tilings and
// every schedule.
func TestAppendTileGroupsMatchesTileGroups(t *testing.T) {
	l := alexConv2(t)
	tilings := []Tiling{
		{Th: 10, Tw: 27, Tj: 256, Ti: 96}, // remainder in H only
		{Th: 5, Tw: 4, Tj: 100, Ti: 7},    // remainder in every dim
		{Th: 27, Tw: 27, Tj: 256, Ti: 96}, // one tile per dim
		{Th: 1, Tw: 13, Tj: 33, Ti: 96},   // remainder in W and J
	}
	strided := cnn.AlexNet().Layers[0] // 11x11 stride 4
	buf := []TileGroup{{Elems: -1, Loads: -1, Write: true}}
	for _, tc := range []struct {
		l  cnn.Layer
		tl Tiling
	}{
		{l, tilings[0]}, {l, tilings[1]}, {l, tilings[2]}, {l, tilings[3]},
		{strided, Tiling{Th: 7, Tw: 11, Tj: 40, Ti: 2}},
	} {
		for _, s := range Schedules {
			for _, batch := range []int{1, 4} {
				want := TileGroups(tc.l, tc.tl, s, batch)
				// Leave stale groups behind in the buffer's backing array.
				buf = append(buf[:1], want...)
				buf = append(buf, TileGroup{Elems: 99, Loads: 99})
				got := AppendTileGroups(buf[:1], tc.l, tc.tl, s, batch)
				if !reflect.DeepEqual(got[1:], want) || got[0] != (TileGroup{Elems: -1, Loads: -1, Write: true}) {
					t.Fatalf("%s %v %v batch %d: AppendTileGroups = %v, want prefix + %v", tc.l.Name, tc.tl, s, batch, got, want)
				}
				buf = got
				tg := TileGroupsByTensor(tc.l, tc.tl, s, batch)
				joined := append(append(append([]TileGroup(nil), tg.Ifm...), tg.Wgt...), tg.Ofm...)
				if !reflect.DeepEqual(joined, want) {
					t.Fatalf("%s %v %v batch %d: TileGroupsByTensor splits %v, want %v", tc.l.Name, tc.tl, s, batch, tg, want)
				}
				for _, g := range tg.Ofm {
					if g.Elems <= 0 || g.Loads <= 0 {
						t.Fatalf("%s %v %v: empty ofm group %+v", tc.l.Name, tc.tl, s, g)
					}
				}
			}
		}
	}
}

// TestTileGroupsRemainderSplit pins the expansion of a tiling with a
// remainder in every dimension: each distinct tile size is one group,
// ifms then weights then ofms.
func TestTileGroupsRemainderSplit(t *testing.T) {
	l := cnn.Layer{Name: "r", H: 5, W: 3, J: 5, I: 3, P: 3, Q: 3, Stride: 1, Pad: 1}
	tg := TileGroupsByTensor(l, Tiling{Th: 2, Tw: 2, Tj: 4, Ti: 2}, OfmsReuse, 1)
	// H: 2x2 + 1, W: 1x2 + 1, I: 1x2 + 1, J: 1x4 + 1.
	if len(tg.Ifm) != 8 || len(tg.Wgt) != 4 || len(tg.Ofm) != 8 {
		t.Fatalf("groups per tensor = %d/%d/%d, want 8/4/8", len(tg.Ifm), len(tg.Wgt), len(tg.Ofm))
	}
	// First ifms group: full tiles everywhere, (2-1)+3=4 rows and
	// columns x 2 channels, 2 H tiles x 1 W tile x 1 I tile x Nj=2.
	if want := (TileGroup{Elems: 4 * 4 * 2, Loads: 2 * 2}); tg.Ifm[0] != want {
		t.Errorf("ifm[0] = %+v, want %+v", tg.Ifm[0], want)
	}
	// Last weights group: the 1-channel x 1-filter remainder tile,
	// fetched once per (h, w) tile pair: 3 x 2 = 6.
	if want := (TileGroup{Elems: 9, Loads: 6}); tg.Wgt[3] != want {
		t.Errorf("wgt[3] = %+v, want %+v", tg.Wgt[3], want)
	}
}
