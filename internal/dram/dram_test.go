package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestArchString(t *testing.T) {
	cases := map[Arch]string{
		DDR3:     "DDR3",
		SALP1:    "SALP-1",
		SALP2:    "SALP-2",
		SALPMASA: "SALP-MASA",
		Arch(42): "Arch(42)",
	}
	for arch, want := range cases {
		if got := arch.String(); got != want {
			t.Errorf("Arch(%d).String() = %q, want %q", int(arch), got, want)
		}
	}
}

func TestArchHasSALP(t *testing.T) {
	if DDR3.HasSALP() {
		t.Error("DDR3 must not report SALP support")
	}
	for _, a := range []Arch{SALP1, SALP2, SALPMASA} {
		if !a.HasSALP() {
			t.Errorf("%v must report SALP support", a)
		}
	}
}

func TestGeometry2GbCapacity(t *testing.T) {
	g := DDR3Config().Geometry
	const twoGigabit = 2 * 1024 * 1024 * 1024 / 8
	if got := g.ChipBytes(); got != twoGigabit {
		t.Errorf("chip capacity = %d bytes, want %d (2 Gb)", got, twoGigabit)
	}
	if got := g.TotalBytes(); got != twoGigabit {
		t.Errorf("system capacity = %d bytes, want %d (one chip)", got, twoGigabit)
	}
}

func TestGeometryDerived(t *testing.T) {
	g := DDR3Config().Geometry
	if got := g.RowsPerSubarray(); got != 4096 {
		t.Errorf("rows per subarray = %d, want 4096", got)
	}
	if got := g.RowBytes(); got != 1024 {
		t.Errorf("row bytes = %d, want 1024 (1 KB page)", got)
	}
	if got := g.AccessBytes(); got != 8 {
		t.Errorf("access bytes = %d, want 8 (x8 BL8, one chip)", got)
	}
}

func TestGeometryValidateRejectsBadShapes(t *testing.T) {
	base := DDR3Config().Geometry
	mutations := []struct {
		name string
		mut  func(*Geometry)
	}{
		{"zero channels", func(g *Geometry) { g.Channels = 0 }},
		{"zero ranks", func(g *Geometry) { g.Ranks = 0 }},
		{"zero chips", func(g *Geometry) { g.Chips = 0 }},
		{"zero banks", func(g *Geometry) { g.Banks = 0 }},
		{"zero subarrays", func(g *Geometry) { g.Subarrays = 0 }},
		{"zero rows", func(g *Geometry) { g.Rows = 0 }},
		{"zero columns", func(g *Geometry) { g.Columns = 0 }},
		{"uneven subarray split", func(g *Geometry) { g.Subarrays = 7 }},
		{"bad chip width", func(g *Geometry) { g.ChipBits = 9 }},
		{"bad burst length", func(g *Geometry) { g.BurstLength = 5 }},
	}
	for _, m := range mutations {
		g := base
		m.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid geometry %+v", m.name, g)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("preset geometry rejected: %v", err)
	}
}

func TestTimingValidate(t *testing.T) {
	tm := timingDDR31600()
	if err := tm.Validate(); err != nil {
		t.Fatalf("preset timing rejected: %v", err)
	}
	bad := tm
	bad.TRC = tm.TRAS + tm.TRP - 1
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted tRC < tRAS+tRP")
	}
	bad = tm
	bad.CL = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted CL = 0")
	}
	bad = tm
	bad.TCKNanos = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted tCK = 0")
	}
	bad = tm
	bad.TSASEL = -1
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted negative tSASEL")
	}
}

func TestTimingSeconds(t *testing.T) {
	tm := timingDDR31600()
	if got := tm.Seconds(800_000_000); got < 0.999 || got > 1.001 {
		t.Errorf("800M cycles at 1.25ns = %g s, want 1 s", got)
	}
	if got := tm.Seconds(0); got != 0 {
		t.Errorf("0 cycles = %g s, want 0", got)
	}
}

func TestPowerValidate(t *testing.T) {
	p := power2GbX8()
	if err := p.Validate(); err != nil {
		t.Fatalf("preset power rejected: %v", err)
	}
	bad := p
	bad.IDD0 = p.IDD3N
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted IDD0 <= IDD3N")
	}
	bad = p
	bad.VDD = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted VDD = 0")
	}
	bad = p
	bad.SubarrayActFactor = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted SubarrayActFactor < 1")
	}
	bad = p
	bad.IDD4R = p.IDD3N
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted IDD4R <= IDD3N")
	}
	bad = p
	bad.ReadIOPicoJPerBit = -250
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a negative I/O energy")
	}
}

func TestPresetConfigsValidate(t *testing.T) {
	for _, cfg := range AllConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v preset invalid: %v", cfg.Arch, err)
		}
	}
}

func TestConfigForCoversAllArchs(t *testing.T) {
	for _, a := range Archs {
		cfg := ConfigFor(a)
		if cfg.Arch != a {
			t.Errorf("ConfigFor(%v).Arch = %v", a, cfg.Arch)
		}
	}
}

func TestConfigForPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ConfigFor(unknown) did not panic")
		}
	}()
	ConfigFor(Arch(99))
}

func TestSALPConfigRequiresSubarrays(t *testing.T) {
	cfg := SALP1Config()
	cfg.Geometry.Subarrays = 1
	if err := cfg.Validate(); err == nil {
		t.Error("SALP-1 with 1 subarray must be rejected")
	}
}

func TestMASAActFactorExceedsDDR3(t *testing.T) {
	if SALPMASAConfig().Power.SubarrayActFactor <= DDR3Config().Power.SubarrayActFactor {
		t.Error("MASA should charge extra activation energy relative to DDR3")
	}
}

func TestAddressSubarrayDerivation(t *testing.T) {
	g := DDR3Config().Geometry // 4096 rows per subarray
	cases := []struct {
		row, want int
	}{
		{0, 0}, {4095, 0}, {4096, 1}, {8191, 1}, {32767, 7},
	}
	for _, c := range cases {
		a := Address{Row: c.row}
		if got := a.Subarray(g); got != c.want {
			t.Errorf("row %d -> subarray %d, want %d", c.row, got, c.want)
		}
	}
}

func TestAddressValid(t *testing.T) {
	g := DDR3Config().Geometry
	good := Address{Channel: 0, Rank: 0, Bank: 7, Row: 32767, Column: 127}
	if !good.Valid(g) {
		t.Errorf("address %v should be valid", good)
	}
	bads := []Address{
		{Bank: 8}, {Row: 32768}, {Column: 128}, {Channel: 1}, {Rank: 1},
		{Bank: -1}, {Row: -1}, {Column: -1},
	}
	for _, b := range bads {
		if b.Valid(g) {
			t.Errorf("address %v should be invalid", b)
		}
	}
}

func TestAddressLinearIsInjective(t *testing.T) {
	g := Geometry{
		Channels: 2, Ranks: 2, Chips: 1, Banks: 4, Subarrays: 2,
		Rows: 8, Columns: 4, ChipBits: 8, BurstLength: 8,
	}
	seen := make(map[int64]Address)
	for ch := 0; ch < g.Channels; ch++ {
		for ra := 0; ra < g.Ranks; ra++ {
			for ba := 0; ba < g.Banks; ba++ {
				for ro := 0; ro < g.Rows; ro++ {
					for co := 0; co < g.Columns; co++ {
						a := Address{ch, ra, ba, ro, co}
						l := a.Linear(g)
						if prev, dup := seen[l]; dup {
							t.Fatalf("Linear collision: %v and %v both -> %d", prev, a, l)
						}
						seen[l] = a
					}
				}
			}
		}
	}
	want := g.Channels * g.Ranks * g.Banks * g.Rows * g.Columns
	if len(seen) != want {
		t.Fatalf("enumerated %d distinct linears, want %d", len(seen), want)
	}
}

func TestAddressLinearRoundTripProperty(t *testing.T) {
	g := DDR3Config().Geometry
	f := func(bank, row, col uint16) bool {
		a := Address{
			Bank:   int(bank) % g.Banks,
			Row:    int(row) % g.Rows,
			Column: int(col) % g.Columns,
		}
		l := a.Linear(g)
		// Invert the flattening manually.
		co := l % int64(g.Columns)
		l /= int64(g.Columns)
		ro := l % int64(g.Rows)
		l /= int64(g.Rows)
		ba := l % int64(g.Banks)
		return int(co) == a.Column && int(ro) == a.Row && int(ba) == a.Bank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestAddressString(t *testing.T) {
	a := Address{Channel: 1, Rank: 0, Bank: 3, Row: 42, Column: 7}
	if got, want := a.String(), "ch1.ra0.ba3.ro42.co7"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestConfigString(t *testing.T) {
	s := DDR3Config().String()
	if s == "" {
		t.Fatal("empty config string")
	}
	for _, sub := range []string{"DDR3", "8bank", "x8", "BL8"} {
		if !containsStr(s, sub) {
			t.Errorf("config string %q missing %q", s, sub)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
