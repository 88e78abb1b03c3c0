package mapping

import (
	"testing"

	"drmap/internal/dram"
)

// smallGeom is a geometry tiny enough that tiles spill across ranks.
func smallGeom(channels, ranks int) dram.Geometry {
	return dram.Geometry{
		Channels: channels, Ranks: ranks, Chips: 1, Banks: 2, Subarrays: 2,
		Rows: 8, Columns: 4, ChipBits: 8, BurstLength: 8,
	}
}

func TestRankSpillFillsRanksInOrder(t *testing.T) {
	g := smallGeom(2, 2)
	cap := rankCapacity(g) // 2*8*4 = 64 bursts per rank
	addrs := RankSpill(DRMap(), 3*cap, g)
	if len(addrs) != int(3*cap) {
		t.Fatalf("got %d addresses", len(addrs))
	}
	for i, a := range addrs {
		unit := int64(i) / cap
		wantRank := int(unit) % g.Ranks
		wantCh := int(unit) / g.Ranks
		if a.Rank != wantRank || a.Channel != wantCh {
			t.Fatalf("address %d in rank %d ch %d, want rank %d ch %d",
				i, a.Rank, a.Channel, wantRank, wantCh)
		}
		if !a.Valid(g) {
			t.Fatalf("address %d invalid: %v", i, a)
		}
	}
}

func TestRankSpillSingleRankMatchesAddresses(t *testing.T) {
	g := dram.DDR3Config().Geometry
	a := RankSpill(DRMap(), 512, g)
	b := DRMap().Addresses(512, g)
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("index %d: spill %v != plain %v", i, a[i], b[i])
		}
	}
}

func TestChannelInterleavedRoundRobin(t *testing.T) {
	g := smallGeom(2, 1)
	addrs := ChannelInterleaved(DRMap(), 64, g)
	if len(addrs) != 64 {
		t.Fatalf("got %d addresses", len(addrs))
	}
	for i, a := range addrs {
		if a.Channel != i%2 {
			t.Fatalf("address %d on channel %d, want %d", i, a.Channel, i%2)
		}
		if !a.Valid(g) {
			t.Fatalf("address %d invalid: %v", i, a)
		}
	}
}

func TestChannelInterleavedDistinctAddresses(t *testing.T) {
	g := smallGeom(2, 2)
	addrs := ChannelInterleaved(DRMap(), 200, g)
	seen := map[int64]bool{}
	for _, a := range addrs {
		l := a.Linear(g)
		if seen[l] {
			t.Fatalf("duplicate address %v", a)
		}
		seen[l] = true
	}
}

func TestChannelInterleavedSingleUnitFallsBack(t *testing.T) {
	g := dram.DDR3Config().Geometry
	a := ChannelInterleaved(DRMap(), 100, g)
	b := DRMap().Addresses(100, g)
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("index %d differs", i)
		}
	}
}

func TestInterleavedCountsTotal(t *testing.T) {
	g := smallGeom(2, 2)
	for _, n := range []int64{1, 7, 64, 255} {
		c := InterleavedCounts(DRMap(), n, g)
		if c.Total() != n {
			t.Errorf("InterleavedCounts(%d).Total() = %d", n, c.Total())
		}
	}
	// Single-unit geometry: identical to plain Counts.
	g1 := dram.DDR3Config().Geometry
	if InterleavedCounts(DRMap(), 999, g1) != DRMap().Counts(999, g1) {
		t.Error("single-unit interleaved counts differ from plain counts")
	}
}

func TestInterleavedCountsMatchStreamPerUnit(t *testing.T) {
	// Splitting the interleaved stream back per unit must reproduce the
	// per-unit policy counts summed by InterleavedCounts.
	g := smallGeom(2, 2)
	p := DRMap()
	const n = 250
	addrs := ChannelInterleaved(p, n, g)
	byUnit := map[[2]int][]dram.Address{}
	for _, a := range addrs {
		k := [2]int{a.Channel, a.Rank}
		byUnit[k] = append(byUnit[k], a)
	}
	var sum Counts
	for _, unit := range byUnit {
		sum.Add(StreamCounts(unit, g), 1)
	}
	// StreamCounts within a unit follows the physical classification;
	// compare against the physically classified per-unit closed form.
	var want Counts
	units := int64(g.Channels * g.Ranks)
	for u := int64(0); u < units; u++ {
		cnt := (n - u + units - 1) / units
		if cnt > 0 {
			want.Add(p.PhysicalCounts(cnt, g), 1)
		}
	}
	if sum != want {
		t.Errorf("per-unit stream counts %+v != closed form %+v", sum, want)
	}
}

func TestEffectiveParallelism(t *testing.T) {
	if got := EffectiveParallelism(smallGeom(4, 2)); got != 4 {
		t.Errorf("parallelism = %g, want 4 (channels only)", got)
	}
	if got := EffectiveParallelism(dram.DDR3Config().Geometry); got != 1 {
		t.Errorf("parallelism = %g, want 1", got)
	}
}
