package mapping

import "drmap/internal/dram"

// This file implements the multi-rank/multi-channel stages of the DRMap
// flowchart (Fig. 5): step 4 wraps within a rank, and step 5 spills to
// "a different rank (channel) if available". Two placements are
// provided:
//
//   - RankSpill: the literal step 5 - fill one rank completely, then
//     move to the next rank, then the next channel. Tiles only reach
//     other ranks when they exceed a rank's capacity.
//   - ChannelInterleaved: the parallel generalization - consecutive
//     bursts round-robin across channels (and ranks within a channel),
//     so independent channel buses serve one tile concurrently. This is
//     the placement a multi-channel accelerator would actually use, and
//     the multi-channel experiments quantify its speedup.

// rankCapacity returns the burst capacity of one rank.
func rankCapacity(g dram.Geometry) int64 {
	return int64(g.Banks) * int64(g.Rows) * int64(g.Columns)
}

// RankSpill lays out a tile with the policy inside each rank, moving to
// the next rank (then channel) only when the previous one is full -
// DRMap's step 5 verbatim.
func RankSpill(p Policy, bursts int64, g dram.Geometry) []dram.Address {
	cap := rankCapacity(g)
	addrs := make([]dram.Address, 0, bursts)
	var done int64
	for done < bursts {
		n := bursts - done
		if n > cap {
			n = cap
		}
		unit := done / cap
		ra := int(unit) % g.Ranks
		ch := int(unit) / g.Ranks
		if ch >= g.Channels {
			// Out of capacity: wrap around (callers validate sizes; this
			// keeps the function total).
			ch = ch % g.Channels
		}
		for _, a := range p.Addresses(n, g) {
			a.Rank = ra
			a.Channel = ch
			addrs = append(addrs, a)
		}
		done += n
	}
	return addrs
}

// ChannelInterleaved spreads consecutive bursts round-robin over all
// channel/rank pairs, applying the policy within each unit. With C
// units, unit u receives the sub-stream of ceil((bursts-u)/C) bursts.
func ChannelInterleaved(p Policy, bursts int64, g dram.Geometry) []dram.Address {
	units := int64(g.Channels) * int64(g.Ranks)
	if units <= 1 {
		return p.Addresses(bursts, g)
	}
	// Pre-generate each unit's sub-stream.
	sub := make([][]dram.Address, units)
	for u := int64(0); u < units; u++ {
		n := (bursts - u + units - 1) / units
		if n < 0 {
			n = 0
		}
		sub[u] = p.Addresses(n, g)
	}
	addrs := make([]dram.Address, 0, bursts)
	for k := int64(0); k < bursts; k++ {
		u := k % units
		a := sub[u][k/units]
		a.Channel = int(u) % g.Channels
		a.Rank = int(u) / g.Channels
		addrs = append(addrs, a)
	}
	return addrs
}

// InterleavedCounts prices a channel-interleaved tile analytically: each
// of the C=channels*ranks units sees an independent sub-stream laid out
// by the policy, so the per-category counts are the sum of the units'
// counts. The *cycles* of those counts overlap across channel buses;
// EffectiveParallelism reports the divisor to apply to the serial cycle
// total.
func InterleavedCounts(p Policy, bursts int64, g dram.Geometry) Counts {
	units := int64(g.Channels) * int64(g.Ranks)
	if units <= 1 {
		return p.Counts(bursts, g)
	}
	var total Counts
	for u := int64(0); u < units; u++ {
		n := (bursts - u + units - 1) / units
		if n > 0 {
			total.Add(p.Counts(n, g), 1)
		}
	}
	return total
}

// EffectiveParallelism returns the cycle-overlap factor of a
// channel-interleaved placement: channels have fully independent buses;
// ranks on a shared channel bus only overlap bank timing, which the
// per-category costs already capture, so only channels divide time.
func EffectiveParallelism(g dram.Geometry) float64 {
	if g.Channels < 1 {
		return 1
	}
	return float64(g.Channels)
}
