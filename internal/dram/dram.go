// Package dram models the organization, timing and electrical parameters
// of commodity DRAM devices (DDR3) and of the subarray-level-parallelism
// (SALP) architectures proposed by Kim et al. (ISCA 2012): SALP-1, SALP-2
// and SALP-MASA.
//
// The package is the foundation of the DRMap reproduction: it defines the
// address space (channel, rank, chip, bank, subarray, row, column), the
// JEDEC timing parameters used by the cycle-accurate controller in
// package memctrl, and the IDD current parameters used by the energy
// model in package vampire.
//
// The identity of a DRAM system is a registered Backend (backend.go):
// the paper's four architectures and the generality presets (DDR4,
// LPDDR3, LPDDR4, HBM2; see EXPERIMENTS.md) are seeded at init, and
// Register makes new systems addressable by every tool and service
// endpoint at runtime. The Arch enum survives as the controller
// capability inside Config, which is what it always described.
package dram

import (
	"fmt"
)

// Arch identifies a DRAM architecture variant.
type Arch int

const (
	// DDR3 is a commodity DDR3 device: one subarray of a bank can be
	// accessed at a time, and the subarray structure is invisible to the
	// memory controller.
	DDR3 Arch = iota
	// SALP1 overlaps the precharge of one subarray with the activation of
	// another subarray in the same bank (re-interpreted tRP).
	SALP1
	// SALP2 additionally overlaps the write-recovery latency (tWR) of an
	// active subarray with the activation of another subarray.
	SALP2
	// SALPMASA (Multitude of Activated Subarrays) keeps multiple
	// subarrays activated concurrently; switching to an already-activated
	// subarray costs only a subarray-select.
	SALPMASA
)

// Archs lists all supported architectures in the order used by the
// paper's figures.
var Archs = []Arch{DDR3, SALP1, SALP2, SALPMASA}

// String returns the paper's name for the architecture.
func (a Arch) String() string {
	switch a {
	case DDR3:
		return "DDR3"
	case SALP1:
		return "SALP-1"
	case SALP2:
		return "SALP-2"
	case SALPMASA:
		return "SALP-MASA"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// HasSALP reports whether the architecture exposes subarray-level
// parallelism to the memory controller.
func (a Arch) HasSALP() bool { return a != DDR3 }

// Geometry describes the physical organization of a DRAM system, from
// channel down to column. The DRMap paper (Table II) uses one channel,
// one rank per channel, one chip per rank, 8 banks per chip and - for
// SALP - 8 subarrays per bank.
type Geometry struct {
	Channels  int // independent command/data channels
	Ranks     int // ranks per channel
	Chips     int // chips per rank (accessed in lock-step)
	Banks     int // banks per chip
	Subarrays int // subarrays per bank (1 for logical DDR3 view)
	Rows      int // rows per bank (across all its subarrays)
	// Columns counts burst-aligned column locations per row: the device's
	// byte-wide column addresses grouped BurstLength per burst. A 2 Gb x8
	// die with a 1 KB page has 1024 byte columns = 128 burst locations.
	Columns     int
	ChipBits    int // data pins per chip (x4/x8/x16)
	BurstLength int // beats per column access (BL8 = 8)
}

// RowsPerSubarray returns the number of rows held by one subarray.
func (g Geometry) RowsPerSubarray() int {
	if g.Subarrays <= 0 {
		return g.Rows
	}
	return g.Rows / g.Subarrays
}

// RowBytes returns the bytes stored in one row of one chip.
func (g Geometry) RowBytes() int {
	return g.Columns * g.BurstLength * g.ChipBits / 8
}

// AccessBytes returns the bytes transferred by a single column access
// (one full burst) across all chips of a rank.
func (g Geometry) AccessBytes() int {
	return g.Chips * g.ChipBits * g.BurstLength / 8
}

// ChipBytes returns the capacity of one chip in bytes.
func (g Geometry) ChipBytes() int64 {
	return int64(g.Banks) * int64(g.Rows) * int64(g.RowBytes())
}

// TotalBytes returns the capacity of the whole configured system.
func (g Geometry) TotalBytes() int64 {
	return g.ChipBytes() * int64(g.Chips) * int64(g.Ranks) * int64(g.Channels)
}

// Validate reports a descriptive error for inconsistent geometry.
func (g Geometry) Validate() error {
	switch {
	case g.Channels < 1:
		return fmt.Errorf("dram: geometry needs at least 1 channel, got %d", g.Channels)
	case g.Ranks < 1:
		return fmt.Errorf("dram: geometry needs at least 1 rank per channel, got %d", g.Ranks)
	case g.Chips < 1:
		return fmt.Errorf("dram: geometry needs at least 1 chip per rank, got %d", g.Chips)
	case g.Banks < 1:
		return fmt.Errorf("dram: geometry needs at least 1 bank, got %d", g.Banks)
	case g.Subarrays < 1:
		return fmt.Errorf("dram: geometry needs at least 1 subarray per bank, got %d", g.Subarrays)
	case g.Rows < 1 || g.Columns < 1:
		return fmt.Errorf("dram: geometry needs positive rows/columns, got %d/%d", g.Rows, g.Columns)
	case g.Rows%g.Subarrays != 0:
		return fmt.Errorf("dram: rows (%d) must divide evenly across subarrays (%d)", g.Rows, g.Subarrays)
	case g.ChipBits != 4 && g.ChipBits != 8 && g.ChipBits != 16:
		return fmt.Errorf("dram: chip width must be x4/x8/x16 bits, got x%d", g.ChipBits)
	case g.BurstLength != 4 && g.BurstLength != 8:
		return fmt.Errorf("dram: burst length must be 4 or 8, got %d", g.BurstLength)
	}
	return nil
}

// Address identifies one column-access-sized unit of storage. Rows are
// numbered within the bank (0..Rows-1); the owning subarray is derived
// from the row number.
type Address struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Column  int
}

// Subarray returns the subarray that holds the address's row.
func (a Address) Subarray(g Geometry) int {
	rps := g.RowsPerSubarray()
	if rps == 0 {
		return 0
	}
	return a.Row / rps
}

// Valid reports whether the address is inside the geometry.
func (a Address) Valid(g Geometry) bool {
	return a.Channel >= 0 && a.Channel < g.Channels &&
		a.Rank >= 0 && a.Rank < g.Ranks &&
		a.Bank >= 0 && a.Bank < g.Banks &&
		a.Row >= 0 && a.Row < g.Rows &&
		a.Column >= 0 && a.Column < g.Columns
}

// Linear flattens the address into a unique index in
// [0, Channels*Ranks*Banks*Rows*Columns). The flattening order is
// channel-major and column-minor; it is used by tests asserting that
// mapping policies are bijective.
func (a Address) Linear(g Geometry) int64 {
	idx := int64(a.Channel)
	idx = idx*int64(g.Ranks) + int64(a.Rank)
	idx = idx*int64(g.Banks) + int64(a.Bank)
	idx = idx*int64(g.Rows) + int64(a.Row)
	idx = idx*int64(g.Columns) + int64(a.Column)
	return idx
}

// String renders the address in the ch/ra/ba/sa/ro/co form used by the
// paper's Fig. 6 pseudo-code.
func (a Address) String() string {
	return fmt.Sprintf("ch%d.ra%d.ba%d.ro%d.co%d", a.Channel, a.Rank, a.Bank, a.Row, a.Column)
}

// Timing holds JEDEC-style timing parameters in command-clock cycles.
// The zero value is invalid; use a preset from presets.go or fill every
// field. Field names follow the customary DDR3 datasheet names.
type Timing struct {
	TCKNanos float64 // command clock period in nanoseconds

	CL    int // CAS (read) latency
	CWL   int // CAS write latency
	TRCD  int // ACT to internal RD/WR delay
	TRP   int // PRE to ACT delay (same bank/subarray)
	TRAS  int // ACT to PRE minimum
	TRC   int // ACT to ACT, same bank (tRAS + tRP)
	TBL   int // data-burst duration on the bus (BL8 -> 4 clocks)
	TCCD  int // column-to-column delay
	TRTP  int // read to precharge
	TWR   int // write recovery before precharge
	TWTR  int // write-to-read turnaround
	TRRD  int // ACT to ACT, different banks
	TFAW  int // rolling window for four ACTs
	TRFC  int // refresh cycle time
	TREFI int // average refresh interval

	// TSASEL is the subarray-select overhead in MASA when a column
	// access targets an already-activated subarray different from the
	// most recently selected one (Kim et al. estimate a single-cycle
	// designated-bit update).
	TSASEL int
}

// Validate reports a descriptive error for inconsistent timing.
func (t Timing) Validate() error {
	type field struct {
		name string
		v    int
	}
	fields := []field{
		{"CL", t.CL}, {"CWL", t.CWL}, {"tRCD", t.TRCD}, {"tRP", t.TRP},
		{"tRAS", t.TRAS}, {"tRC", t.TRC}, {"tBL", t.TBL}, {"tCCD", t.TCCD},
		{"tRTP", t.TRTP}, {"tWR", t.TWR}, {"tWTR", t.TWTR}, {"tRRD", t.TRRD},
		{"tFAW", t.TFAW}, {"tRFC", t.TRFC}, {"tREFI", t.TREFI},
	}
	for _, f := range fields {
		if f.v <= 0 {
			return fmt.Errorf("dram: timing %s must be positive, got %d", f.name, f.v)
		}
	}
	if t.TCKNanos <= 0 {
		return fmt.Errorf("dram: tCK must be positive, got %g ns", t.TCKNanos)
	}
	if t.TRC < t.TRAS+t.TRP {
		return fmt.Errorf("dram: tRC (%d) must cover tRAS+tRP (%d)", t.TRC, t.TRAS+t.TRP)
	}
	if t.TSASEL < 0 {
		return fmt.Errorf("dram: tSASEL must be non-negative, got %d", t.TSASEL)
	}
	return nil
}

// Seconds converts a cycle count into seconds.
func (t Timing) Seconds(cycles int64) float64 {
	return float64(cycles) * t.TCKNanos * 1e-9
}

// Power holds the electrical parameters of one chip, in the form used
// by the Micron DDR3 power calculator: IDD currents in milliamperes and
// the supply voltage in volts. They drive the VAMPIRE-style energy
// model in package vampire.
type Power struct {
	VDD float64 // supply voltage [V]

	IDD0  float64 // one-bank ACT-PRE current [mA]
	IDD2N float64 // precharge standby [mA]
	IDD2P float64 // precharge power-down [mA]
	IDD3N float64 // active standby [mA]
	IDD3P float64 // active power-down [mA]
	IDD4R float64 // burst read [mA]
	IDD4W float64 // burst write [mA]
	IDD5B float64 // burst refresh [mA]

	// ReadIOPicoJPerBit / WriteIOPicoJPerBit model the off-chip I/O and
	// termination energy per transferred bit.
	ReadIOPicoJPerBit  float64
	WriteIOPicoJPerBit float64

	// SubarrayActFactor scales the activation energy for architectures
	// that keep several subarrays open (MASA keeps more local row
	// buffers latched). 1.0 means no overhead.
	SubarrayActFactor float64

	// SubarrayLatchFraction is the background power of keeping one
	// additional subarray's local row buffer latched open, as a fraction
	// of active-standby power. Only SALP-2 and MASA ever hold more than
	// one subarray of a bank open, so commodity parts leave it at 0.
	SubarrayLatchFraction float64
}

// Validate reports a descriptive error for inconsistent power parameters.
func (p Power) Validate() error {
	if p.VDD <= 0 {
		return fmt.Errorf("dram: VDD must be positive, got %g", p.VDD)
	}
	currents := []struct {
		name string
		v    float64
	}{
		{"IDD0", p.IDD0}, {"IDD2N", p.IDD2N}, {"IDD2P", p.IDD2P},
		{"IDD3N", p.IDD3N}, {"IDD3P", p.IDD3P}, {"IDD4R", p.IDD4R},
		{"IDD4W", p.IDD4W}, {"IDD5B", p.IDD5B},
	}
	for _, c := range currents {
		if c.v <= 0 {
			return fmt.Errorf("dram: %s must be positive, got %g mA", c.name, c.v)
		}
	}
	if p.IDD0 <= p.IDD3N {
		return fmt.Errorf("dram: IDD0 (%g) must exceed IDD3N (%g)", p.IDD0, p.IDD3N)
	}
	if p.IDD4R <= p.IDD3N || p.IDD4W <= p.IDD3N {
		return fmt.Errorf("dram: burst currents must exceed active standby")
	}
	if p.ReadIOPicoJPerBit < 0 || p.WriteIOPicoJPerBit < 0 {
		return fmt.Errorf("dram: I/O energy per bit must be non-negative, got read %g, write %g pJ", p.ReadIOPicoJPerBit, p.WriteIOPicoJPerBit)
	}
	if p.SubarrayActFactor < 1 {
		return fmt.Errorf("dram: SubarrayActFactor must be >= 1, got %g", p.SubarrayActFactor)
	}
	if p.SubarrayLatchFraction < 0 || p.SubarrayLatchFraction > 1 {
		return fmt.Errorf("dram: SubarrayLatchFraction must be in [0,1], got %g", p.SubarrayLatchFraction)
	}
	return nil
}

// Config bundles everything the simulator needs to model one DRAM system.
type Config struct {
	Arch     Arch
	Geometry Geometry
	Timing   Timing
	Power    Power
}

// Validate checks the full configuration for consistency.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if c.Arch.HasSALP() && c.Geometry.Subarrays < 2 {
		return fmt.Errorf("dram: %v requires at least 2 subarrays per bank, got %d",
			c.Arch, c.Geometry.Subarrays)
	}
	return nil
}

// String summarizes the configuration.
func (c Config) String() string {
	g := c.Geometry
	return fmt.Sprintf("%v %dch x %drank x %dchip x %dbank x %dsa (%d rows x %d cols, x%d, BL%d)",
		c.Arch, g.Channels, g.Ranks, g.Chips, g.Banks, g.Subarrays, g.Rows, g.Columns,
		g.ChipBits, g.BurstLength)
}
