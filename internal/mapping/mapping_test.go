package mapping

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"drmap/internal/dram"
)

func geom(t *testing.T) dram.Geometry {
	t.Helper()
	return dram.DDR3Config().Geometry
}

func TestTableIMatchesPaper(t *testing.T) {
	want := [][4]Level{
		{LevelColumn, LevelSubarray, LevelBank, LevelRow},
		{LevelSubarray, LevelColumn, LevelBank, LevelRow},
		{LevelColumn, LevelBank, LevelSubarray, LevelRow},
		{LevelBank, LevelColumn, LevelSubarray, LevelRow},
		{LevelSubarray, LevelBank, LevelColumn, LevelRow},
		{LevelBank, LevelSubarray, LevelColumn, LevelRow},
	}
	policies := TableI()
	if len(policies) != 6 {
		t.Fatalf("Table I has %d policies, want 6", len(policies))
	}
	for i, p := range policies {
		if p.ID != i+1 {
			t.Errorf("policy %d has ID %d", i, p.ID)
		}
		if p.Order != want[i] {
			t.Errorf("Mapping-%d order = %v, want %v", i+1, p.Order, want[i])
		}
		if err := p.Validate(); err != nil {
			t.Errorf("Mapping-%d invalid: %v", i+1, err)
		}
	}
}

func TestDRMapIsMapping3(t *testing.T) {
	d := DRMap()
	if d.ID != 3 {
		t.Fatalf("DRMap ID = %d, want 3", d.ID)
	}
	want := [4]Level{LevelColumn, LevelBank, LevelSubarray, LevelRow}
	if d.Order != want {
		t.Errorf("DRMap order = %v, want %v", d.Order, want)
	}
}

func TestDefaultPolicyIsSubarrayUnaware(t *testing.T) {
	d := Default()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rows advance before subarrays: sequential rows walk through a
	// subarray before crossing into the next.
	if d.Order[2] != LevelRow || d.Order[3] != LevelSubarray {
		t.Errorf("default order = %v", d.Order)
	}
}

func TestValidateRejectsDuplicateLevels(t *testing.T) {
	p := Policy{Name: "bad", Order: [4]Level{LevelColumn, LevelColumn, LevelBank, LevelRow}}
	if err := p.Validate(); err == nil {
		t.Error("duplicate-level policy accepted")
	}
	p = Policy{Name: "bad2", Order: [4]Level{LevelColumn, Level(7), LevelBank, LevelRow}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range level accepted")
	}
}

func TestAllPermutations(t *testing.T) {
	perms := AllPermutations()
	if len(perms) != 24 {
		t.Fatalf("got %d permutations, want 24", len(perms))
	}
	seen := map[[4]Level]bool{}
	for _, p := range perms {
		if err := p.Validate(); err != nil {
			t.Errorf("permutation %v invalid: %v", p, err)
		}
		if seen[p.Order] {
			t.Errorf("duplicate permutation %v", p.Order)
		}
		seen[p.Order] = true
	}
}

func TestLeastRowSwitchingYieldsTableI(t *testing.T) {
	// The paper's pruning rule (keep row outer-most) applied to all 24
	// permutations must yield exactly the six Table I orders.
	pruned := LeastRowSwitching(AllPermutations())
	if len(pruned) != 6 {
		t.Fatalf("pruned to %d policies, want 6", len(pruned))
	}
	want := map[[4]Level]bool{}
	for _, p := range TableI() {
		want[p.Order] = true
	}
	for _, p := range pruned {
		if !want[p.Order] {
			t.Errorf("pruned policy %v not in Table I", p.Order)
		}
	}
}

func TestCountsTotalEqualsBursts(t *testing.T) {
	g := geom(t)
	for _, p := range append(TableI(), Default()) {
		for _, n := range []int64{1, 7, 128, 129, 8192, 1<<20 + 3} {
			c := p.Counts(n, g)
			if c.Total() != n {
				t.Errorf("%s: Counts(%d).Total() = %d", p.Name, n, c.Total())
			}
			pc := p.PhysicalCounts(n, g)
			if pc.Total() != n {
				t.Errorf("%s: PhysicalCounts(%d).Total() = %d", p.Name, n, pc.Total())
			}
		}
	}
}

func TestCountsZeroAndNegative(t *testing.T) {
	g := geom(t)
	p := DRMap()
	if c := p.Counts(0, g); c.Total() != 0 {
		t.Errorf("Counts(0) = %+v", c)
	}
	if c := p.Counts(-5, g); c.Total() != 0 {
		t.Errorf("Counts(-5) = %+v", c)
	}
}

func TestDRMapCountsSmallTile(t *testing.T) {
	// 256 bursts under Mapping-3 with 128 columns/row: 254 hits, 1 bank
	// switch (at access 128), plus the opening row access.
	g := geom(t)
	c := DRMap().Counts(256, g)
	if c[DifColumn] != 254 || c[DifBanks] != 1 || c[DifSubarrays] != 0 || c[DifRows] != 1 {
		t.Errorf("DRMap Counts(256) = %+v", c)
	}
}

func TestMapping2CountsSubarrayDominated(t *testing.T) {
	g := geom(t)
	c := TableI()[1].Counts(1024, g) // Mapping-2: subarray inner-most
	// 7 of every 8 transitions advance the subarray loop.
	if c[DifSubarrays] < 800 {
		t.Errorf("Mapping-2 subarray transitions = %d, want ~7/8 of 1023", c[DifSubarrays])
	}
	if c[DifColumn] == 0 {
		t.Error("Mapping-2 should still have column transitions at level 2")
	}
}

func TestMapping4CountsBankDominated(t *testing.T) {
	g := geom(t)
	c := TableI()[3].Counts(1024, g) // Mapping-4: bank inner-most
	if c[DifBanks] < 800 {
		t.Errorf("Mapping-4 bank transitions = %d, want ~7/8 of 1023", c[DifBanks])
	}
}

func TestDRMapMaximizesHitsAcrossTableI(t *testing.T) {
	// The defining property: for any realistic tile size, no Table I
	// policy yields more row-buffer hits than DRMap, and subarray-first
	// policies (2, 5) yield the fewest.
	g := geom(t)
	for _, n := range []int64{128, 1024, 8192, 65536} {
		policies := TableI()
		drmap := DRMap().Counts(n, g)
		for _, p := range policies {
			c := p.Counts(n, g)
			if c[DifColumn] > drmap[DifColumn] {
				t.Errorf("n=%d: %s has more hits (%d) than DRMap (%d)", n, p.Name, c[DifColumn], drmap[DifColumn])
			}
		}
		m2 := policies[1].Counts(n, g)
		if m2[DifColumn]*4 > drmap[DifColumn] {
			t.Errorf("n=%d: Mapping-2 hits (%d) not far below DRMap hits (%d)", n, m2[DifColumn], drmap[DifColumn])
		}
	}
}

func TestAddressesAreValidAndDistinct(t *testing.T) {
	g := geom(t)
	for _, p := range append(TableI(), Default()) {
		addrs := p.Addresses(4096, g)
		if len(addrs) != 4096 {
			t.Fatalf("%s: got %d addresses", p.Name, len(addrs))
		}
		seen := make(map[int64]bool, len(addrs))
		for i, a := range addrs {
			if !a.Valid(g) {
				t.Fatalf("%s: address %d (%v) invalid", p.Name, i, a)
			}
			l := a.Linear(g)
			if seen[l] {
				t.Fatalf("%s: duplicate address %v at index %d", p.Name, a, i)
			}
			seen[l] = true
		}
	}
}

func TestAddressesBijectiveProperty(t *testing.T) {
	// Distinctness must hold for arbitrary burst counts and policies.
	g := dram.Geometry{
		Channels: 1, Ranks: 1, Chips: 1, Banks: 4, Subarrays: 4,
		Rows: 64, Columns: 8, ChipBits: 8, BurstLength: 8,
	}
	policies := AllPermutations()
	f := func(nRaw uint16, pIdx uint8) bool {
		n := int64(nRaw)%2000 + 1
		p := policies[int(pIdx)%len(policies)]
		addrs := p.Addresses(n, g)
		seen := make(map[int64]bool, len(addrs))
		for _, a := range addrs {
			if !a.Valid(g) {
				return false
			}
			l := a.Linear(g)
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

func TestPhysicalCountsMatchStreamCountsExactly(t *testing.T) {
	// PhysicalCounts is the closed form of StreamCounts over the
	// generated addresses; they must agree access for access.
	g := geom(t)
	for _, p := range append(TableI(), Default()) {
		for _, n := range []int64{1, 100, 128, 1024, 8192, 10000} {
			closed := p.PhysicalCounts(n, g)
			stream := StreamCounts(p.Addresses(n, g), g)
			if closed != stream {
				t.Errorf("%s n=%d: PhysicalCounts %+v != StreamCounts %+v", p.Name, n, closed, stream)
			}
		}
	}
}

func TestPhysicalCountsMatchStreamProperty(t *testing.T) {
	g := dram.Geometry{
		Channels: 1, Ranks: 1, Chips: 1, Banks: 4, Subarrays: 2,
		Rows: 32, Columns: 8, ChipBits: 8, BurstLength: 8,
	}
	policies := AllPermutations()
	f := func(nRaw uint16, pIdx uint8) bool {
		n := int64(nRaw)%1500 + 1
		p := policies[int(pIdx)%len(policies)]
		return p.PhysicalCounts(n, g) == StreamCounts(p.Addresses(n, g), g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Error(err)
	}
}

func TestPaperVsPhysicalDivergenceIsBounded(t *testing.T) {
	// The paper's level-based pricing and the stream-accurate pricing
	// may only disagree on loop-boundary transitions: for column-inner
	// policies that is at most 1/columns of all accesses.
	g := geom(t)
	for _, p := range []Policy{TableI()[0], TableI()[2]} { // Mapping-1, Mapping-3
		n := int64(1 << 16)
		paper := p.Counts(n, g)
		phys := p.PhysicalCounts(n, g)
		if paper[DifColumn] != phys[DifColumn] {
			t.Errorf("%s: hit counts differ: paper %d phys %d", p.Name, paper[DifColumn], phys[DifColumn])
		}
		boundary := n / int64(g.Columns)
		diff := abs64(paper[DifBanks]-phys[DifBanks]) + abs64(paper[DifSubarrays]-phys[DifSubarrays]) +
			abs64(paper[DifRows]-phys[DifRows])
		if diff > 2*boundary {
			t.Errorf("%s: divergence %d exceeds boundary bound %d", p.Name, diff, 2*boundary)
		}
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestCountsAdd(t *testing.T) {
	var acc Counts
	acc.Add(Counts{DifColumn: 10, DifBanks: 1, DifSubarrays: 2, DifRows: 3}, 4)
	want := Counts{DifColumn: 40, DifBanks: 4, DifSubarrays: 8, DifRows: 12}
	if acc != want {
		t.Errorf("Add = %+v, want %+v", acc, want)
	}
}

func TestStreamCountsFirstAccessOpensRow(t *testing.T) {
	g := geom(t)
	c := StreamCounts([]dram.Address{{Bank: 0, Row: 0, Column: 0}}, g)
	if c[DifRows] != 1 || c.Total() != 1 {
		t.Errorf("single access counts = %+v", c)
	}
}

func TestStreamCountsClassification(t *testing.T) {
	g := geom(t) // 4096 rows per subarray
	addrs := []dram.Address{
		{Bank: 0, Row: 0, Column: 0},    // open
		{Bank: 0, Row: 0, Column: 1},    // hit
		{Bank: 1, Row: 0, Column: 1},    // bank switch
		{Bank: 1, Row: 4096, Column: 0}, // subarray switch
		{Bank: 1, Row: 4097, Column: 0}, // row change
	}
	c := StreamCounts(addrs, g)
	want := Counts{DifColumn: 1, DifBanks: 1, DifSubarrays: 1, DifRows: 2}
	if c != want {
		t.Errorf("StreamCounts = %+v, want %+v", c, want)
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		LevelColumn: "column", LevelBank: "bank", LevelSubarray: "subarray",
		LevelRow: "row", Level(9): "Level(9)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d) = %q, want %q", int(l), got, want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		DifColumn: "column", DifBanks: "bank", DifSubarrays: "subarray",
		DifRows: "row", NumCategories: "Category(4)", Category(-1): "Category(-1)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Category(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	s := DRMap().String()
	for _, sub := range []string{"Mapping-3", "column", "bank", "subarray", "row"} {
		if !strings.Contains(s, sub) {
			t.Errorf("policy string %q missing %q", s, sub)
		}
	}
}

func TestCountsWithSingleSubarrayGeometry(t *testing.T) {
	// With one subarray per bank the subarray loop is degenerate: no
	// transitions may be attributed to it.
	g := geom(t)
	g.Subarrays = 1
	for _, p := range TableI() {
		c := p.Counts(1<<14, g)
		if c[DifSubarrays] != 0 {
			t.Errorf("%s: %d subarray transitions with 1 subarray/bank", p.Name, c[DifSubarrays])
		}
		if c.Total() != 1<<14 {
			t.Errorf("%s: total %d", p.Name, c.Total())
		}
	}
}
