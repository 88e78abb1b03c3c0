// Package mapping implements DRAM data-mapping policies for CNN tile
// streams: the six loop-order policies of the DRMap paper's Table I
// (of which Mapping-3 is DRMap itself), the commodity default policy,
// and the machinery the analytical EDP model needs - closed-form counts
// of how many accesses of a streamed tile fall into each of the four
// access categories of Eq. 2-3 (different column / bank / subarray /
// row), plus exact address-stream generation for simulation-based
// cross-validation.
package mapping

import (
	"fmt"

	"drmap/internal/dram"
)

// Level is one nesting level of a mapping policy's loop order.
type Level int

const (
	// LevelColumn advances to the next column of the same row: a row
	// buffer hit.
	LevelColumn Level = iota
	// LevelBank advances to the same row/column position in the next
	// bank: bank-level parallelism.
	LevelBank
	// LevelSubarray advances to the next subarray of the same bank:
	// subarray-level parallelism on SALP, a row conflict on DDR3.
	LevelSubarray
	// LevelRow advances to the next row inside the same subarray: a row
	// conflict everywhere.
	LevelRow
)

var levelNames = [...]string{"column", "bank", "subarray", "row"}

// String names the level as in Table I.
func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Policy is a DRAM mapping policy: the order, inner-most first, in which
// a tile's consecutive bursts walk the DRAM coordinates of one rank.
type Policy struct {
	// ID is the paper's mapping number (1-6); 0 marks policies outside
	// Table I (e.g. the commodity default).
	ID    int
	Name  string
	Order [4]Level // inner-most to outer-most
}

// String renders the policy like Table I does.
func (p Policy) String() string {
	return fmt.Sprintf("%s (%v, %v, %v, %v)", p.Name, p.Order[0], p.Order[1], p.Order[2], p.Order[3])
}

// Validate checks that the order is a permutation of all four levels.
func (p Policy) Validate() error {
	var seen [4]bool
	for _, l := range p.Order {
		if l < 0 || int(l) >= len(seen) {
			return fmt.Errorf("mapping: %s: invalid level %d", p.Name, l)
		}
		if seen[l] {
			return fmt.Errorf("mapping: %s: duplicate level %v", p.Name, l)
		}
		seen[l] = true
	}
	return nil
}

// TableI returns the six mapping policies explored by the paper's DSE
// (Table I), in paper order. All six keep the row loop outer-most -
// the paper's "least frequent subsequent accesses to different rows"
// pruning.
func TableI() []Policy {
	return []Policy{
		{ID: 1, Name: "Mapping-1", Order: [4]Level{LevelColumn, LevelSubarray, LevelBank, LevelRow}},
		{ID: 2, Name: "Mapping-2", Order: [4]Level{LevelSubarray, LevelColumn, LevelBank, LevelRow}},
		{ID: 3, Name: "Mapping-3", Order: [4]Level{LevelColumn, LevelBank, LevelSubarray, LevelRow}},
		{ID: 4, Name: "Mapping-4", Order: [4]Level{LevelBank, LevelColumn, LevelSubarray, LevelRow}},
		{ID: 5, Name: "Mapping-5", Order: [4]Level{LevelSubarray, LevelBank, LevelColumn, LevelRow}},
		{ID: 6, Name: "Mapping-6", Order: [4]Level{LevelBank, LevelSubarray, LevelColumn, LevelRow}},
	}
}

// DRMap returns the paper's proposed policy: Mapping-3, which orderly
// prioritizes row buffer hits (columns first), then bank-level
// parallelism, then subarray-level parallelism, and opens new rows last.
func DRMap() Policy { return TableI()[2] }

// Default returns the commodity DRAM controller mapping described in
// Sec. II-B: consecutive data fill the columns of a row, then the banks
// of the rank, then the next row - with no subarray awareness, so rows
// run sequentially through each subarray before crossing into the next.
func Default() Policy {
	return Policy{ID: 0, Name: "Default", Order: [4]Level{LevelColumn, LevelBank, LevelRow, LevelSubarray}}
}

// AllPermutations returns all 24 loop orders, for the pruning ablation.
func AllPermutations() []Policy {
	levels := []Level{LevelColumn, LevelBank, LevelSubarray, LevelRow}
	var out []Policy
	var permute func(cur []Level, rest []Level)
	permute = func(cur, rest []Level) {
		if len(rest) == 0 {
			var order [4]Level
			copy(order[:], cur)
			out = append(out, Policy{
				Name:  fmt.Sprintf("Perm(%v,%v,%v,%v)", order[0], order[1], order[2], order[3]),
				Order: order,
			})
			return
		}
		for i := range rest {
			next := make([]Level, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			permute(append(cur, rest[i]), next)
		}
	}
	permute(nil, levels)
	return out
}

// LeastRowSwitching filters policies to those whose row loop is
// outer-most - the paper's design-space pruning rule. Applied to
// AllPermutations it yields exactly the six policies of Table I.
func LeastRowSwitching(policies []Policy) []Policy {
	var out []Policy
	for _, p := range policies {
		if p.Order[3] == LevelRow {
			out = append(out, p)
		}
	}
	return out
}

// Category is one access category of the paper's Eq. 2-3: how an
// access relates to the one streamed before it. Counts and the
// per-access costs that price them are arrays indexed by it.
type Category int

const (
	DifColumn     Category = iota // a different column of the open row: a row buffer hit
	DifBanks                      // a transition to a different bank
	DifSubarrays                  // a transition to a different subarray, same bank
	DifRows                       // a row opening within a subarray (incl. the first access)
	NumCategories                 // the number of access categories
)

var categoryNames = [NumCategories]string{"column", "bank", "subarray", "row"}

// String names the category.
func (k Category) String() string {
	if k >= 0 && k < NumCategories {
		return categoryNames[k]
	}
	return fmt.Sprintf("Category(%d)", int(k))
}

// Counts holds the number of accesses in each category of the paper's
// Eq. 2-3 for one streamed tile.
type Counts [NumCategories]int64

// Counts.Add, and core's storeRow and PriceFlatInto, are written out per
// category: a loop over the categories made Add 1.4-2x slower per call
// and the reprice scan 1.25-1.46x slower. This stops compiling when
// NumCategories changes, so that each of them is revisited.
var _ = [1]struct{}{}[NumCategories-4]

// Total returns the number of accesses covered.
func (c Counts) Total() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// Add accumulates other into c scaled by times (used to price a tile
// that is streamed repeatedly).
func (c *Counts) Add(other Counts, times int64) {
	c[DifColumn] += other[DifColumn] * times
	c[DifBanks] += other[DifBanks] * times
	c[DifSubarrays] += other[DifSubarrays] * times
	c[DifRows] += other[DifRows] * times
}

// levelSize returns the loop trip count of a level under the geometry.
func levelSize(l Level, g dram.Geometry) int64 {
	switch l {
	case LevelColumn:
		return int64(g.Columns)
	case LevelBank:
		return int64(g.Banks)
	case LevelSubarray:
		return int64(g.Subarrays)
	default:
		return int64(g.RowsPerSubarray())
	}
}

// transitionsPerLevel returns, for a stream of `bursts` accesses, how
// many transitions advance each nesting level (index 0 = inner-most),
// plus the cumulative loop spans.
func (p Policy) transitionsPerLevel(bursts int64, g dram.Geometry) (perLevel [4]int64) {
	if bursts <= 1 {
		return perLevel
	}
	n := bursts - 1
	var cum [4]int64
	prod := int64(1)
	for i, l := range p.Order {
		prod *= levelSize(l, g)
		cum[i] = prod
	}
	perLevel[0] = n - n/cum[0]
	perLevel[1] = n/cum[0] - n/cum[1]
	perLevel[2] = n/cum[1] - n/cum[2]
	perLevel[3] = n / cum[2] // outer-most absorbs the rest
	return perLevel
}

// levelCategory is the category a transition that advances each loop
// level falls into.
var levelCategory = [...]Category{LevelColumn: DifColumn, LevelBank: DifBanks, LevelSubarray: DifSubarrays, LevelRow: DifRows}

// Counts computes, in closed form, how a stream of `bursts` consecutive
// accesses laid out by the policy splits into the four access
// categories, using the paper's convention: a transition is priced by
// the loop level that advanced (a subarray-loop move counts as
// "different subarray" even though the inner bank/column digits reset).
// The first access of the stream opens a row and is counted under
// DifRows. See PhysicalCounts for the stream-accurate alternative.
func (p Policy) Counts(bursts int64, g dram.Geometry) Counts {
	var c Counts
	if bursts <= 0 {
		return c
	}
	per := p.transitionsPerLevel(bursts, g)
	for i, l := range p.Order {
		c[levelCategory[l]] += per[i]
	}
	// The stream's first access opens its row.
	c[DifRows]++
	return c
}

// physicalPriority orders categories the way a DRAM controller
// classifies an address change: a bank change dominates, then a
// subarray change, then a row change; a pure column move is a hit.
func physicalPriority(l Level) int {
	switch l {
	case LevelBank:
		return 3
	case LevelSubarray:
		return 2
	case LevelRow:
		return 1
	default:
		return 0
	}
}

// PhysicalCounts computes the same split as Counts but prices each
// transition by the actual address change it causes: when an outer loop
// advances, every inner digit resets, so the transition is classified by
// the highest-priority coordinate that changed (bank > subarray > row).
// This matches StreamCounts and the cycle-accurate controller exactly,
// and quantifies the boundary-transition approximation in the paper's
// analytical pricing (see the model-vs-simulation ablation).
func (p Policy) PhysicalCounts(bursts int64, g dram.Geometry) Counts {
	var c Counts
	if bursts <= 0 {
		return c
	}
	per := p.transitionsPerLevel(bursts, g)
	for i := range p.Order {
		if per[i] == 0 {
			continue
		}
		// The transition changes level i and resets every inner level
		// whose loop actually cycles (size > 1).
		cat := p.Order[i]
		best := physicalPriority(cat)
		for j := 0; j < i; j++ {
			if levelSize(p.Order[j], g) > 1 {
				if pr := physicalPriority(p.Order[j]); pr > best {
					best = pr
					cat = p.Order[j]
				}
			}
		}
		c[levelCategory[cat]] += per[i]
	}
	c[DifRows]++
	return c
}

// AddressGen computes a policy's address walk one index at a time:
// At(k) is the k-th element of the stream Addresses materializes. The
// simulate path feeds controllers straight from a generator so a
// multi-thousand-request tile stream costs no per-request storage.
type AddressGen struct {
	order [4]Level
	sizes [4]int64
	rps   int
}

// Generator precomputes the policy's per-level radices over g.
func (p Policy) Generator(g dram.Geometry) AddressGen {
	gen := AddressGen{order: p.Order, rps: g.RowsPerSubarray()}
	for i, l := range p.Order {
		gen.sizes[i] = levelSize(l, g)
	}
	return gen
}

// At returns the k-th address of the walk.
func (gen AddressGen) At(k int64) dram.Address {
	rem := k
	var digit [4]int64
	for i := 0; i < 4; i++ {
		digit[i] = rem % gen.sizes[i]
		rem /= gen.sizes[i]
	}
	var a dram.Address
	var sa, rowInSA int64
	for i, l := range gen.order {
		switch l {
		case LevelColumn:
			a.Column = int(digit[i])
		case LevelBank:
			a.Bank = int(digit[i])
		case LevelSubarray:
			sa = digit[i]
		case LevelRow:
			rowInSA = digit[i]
		}
	}
	a.Row = int(sa)*gen.rps + int(rowInSA)
	return a
}

// Addresses lays out a tile of `bursts` accesses from the origin of the
// rank according to the policy, returning the concrete address stream.
// It is the executable form of the paper's Fig. 6 pseudo-code and feeds
// the simulation-based validation of Counts.
func (p Policy) Addresses(bursts int64, g dram.Geometry) []dram.Address {
	gen := p.Generator(g)
	addrs := make([]dram.Address, 0, bursts)
	for k := int64(0); k < bursts; k++ {
		addrs = append(addrs, gen.At(k))
	}
	return addrs
}

// StreamCounts classifies a concrete address stream transition by
// transition, using the same rules as the cycle-accurate controller:
// a different bank is a bank switch, a different subarray of the same
// bank a subarray switch, a different row of the same subarray a row
// opening, anything else a hit. The first access opens its row. It is
// the reference implementation that Counts must agree with.
func StreamCounts(addrs []dram.Address, g dram.Geometry) Counts {
	var c Counts
	for i, a := range addrs {
		if i == 0 {
			c[DifRows]++
			continue
		}
		prev := addrs[i-1]
		switch {
		case prev.Channel != a.Channel || prev.Rank != a.Rank || prev.Bank != a.Bank:
			c[DifBanks]++
		case prev.Subarray(g) != a.Subarray(g):
			c[DifSubarrays]++
		case prev.Row != a.Row:
			c[DifRows]++
		default:
			c[DifColumn]++
		}
	}
	return c
}
