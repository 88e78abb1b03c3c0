package dram

import (
	"fmt"
	"sort"
	"sync"
)

// Backend is a registered DRAM system: a stable string ID (the key used
// by CLI flags, HTTP request bodies and cache keys), a human-readable
// name (used by report renderers) and the full device configuration.
//
// The backend registry replaces the closed Arch enum as the identity of
// a DRAM system. Arch survives inside Config as what it always actually
// was: the subarray capability a memory controller can exploit, not the
// device generation. Any code that needs "which DRAM is this?" should
// carry a Backend; code that needs "can the controller overlap subarray
// operations?" keeps reading Config.Arch.
type Backend struct {
	ID     string // registry key, e.g. "ddr3", "salp1", "ddr4"
	Name   string // display name, e.g. "DDR3", "DDR4-2400"
	Config Config
}

// Label returns the display name, falling back to the ID.
func (b Backend) Label() string {
	if b.Name != "" {
		return b.Name
	}
	return b.ID
}

// LabelFor names a DRAM system that may or may not be registered: the
// backend's display name when b is a registry entry, else the
// capability arch. Profile, DSEResult and Fig9Point all label through
// this one helper so the fallback policy cannot drift.
func LabelFor(b Backend, a Arch) string {
	if b.ID != "" || b.Name != "" {
		return b.Label()
	}
	return a.String()
}

// registry is the package-level backend registry. Reads vastly outnumber
// writes (registration normally happens once, at init), so an RWMutex
// keeps concurrent HTTP handlers cheap.
var registry = struct {
	sync.RWMutex
	byID   map[string]Backend
	byName map[string]string // display name -> owning ID
}{byID: make(map[string]Backend), byName: make(map[string]string)}

// validBackendID reports whether an ID is usable as a flag value, URL
// fragment and cache-key component: non-empty lowercase letters, digits,
// '-' and '_'.
func validBackendID(id string) bool {
	if id == "" {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= '0' && r <= '9':
		case r == '-' || r == '_':
		default:
			return false
		}
	}
	return true
}

// Register adds a backend to the registry. The ID must be new and
// flag-safe (lowercase letters, digits, '-', '_'), the display name
// must be unique (reports select series columns by label), and the
// configuration must validate; an empty Name defaults to the ID.
func Register(b Backend) error {
	if !validBackendID(b.ID) {
		return fmt.Errorf("dram: backend ID %q must be non-empty lowercase [a-z0-9_-]", b.ID)
	}
	if b.Name == "" {
		b.Name = b.ID
	}
	if err := b.Config.Validate(); err != nil {
		return fmt.Errorf("dram: backend %q: %w", b.ID, err)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byID[b.ID]; dup {
		return fmt.Errorf("dram: backend %q already registered", b.ID)
	}
	if owner, dup := registry.byName[b.Name]; dup {
		return fmt.Errorf("dram: backend name %q already taken by %q", b.Name, owner)
	}
	registry.byID[b.ID] = b
	registry.byName[b.Name] = b.ID
	return nil
}

// MustRegister is Register for init-time seeding; it panics on error.
func MustRegister(b Backend) {
	if err := Register(b); err != nil {
		panic(err)
	}
}

// Lookup returns the backend registered under id.
func Lookup(id string) (Backend, bool) {
	registry.RLock()
	defer registry.RUnlock()
	b, ok := registry.byID[id]
	return b, ok
}

// Backends returns every registered backend sorted by ID, so registry
// listings (flag help, GET /api/v1/backends, characterize-all output)
// are deterministic regardless of registration or map iteration order.
// PaperBackends serves the figure-ordered paper set.
func Backends() []Backend {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Backend, 0, len(registry.byID))
	for _, b := range registry.byID {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BackendIDs returns every registered ID sorted lexicographically.
func BackendIDs() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.byID))
	for id := range registry.byID {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// paperBackendIDs keys the four architectures evaluated by the paper,
// in the order of its figures.
var paperBackendIDs = [...]string{"ddr3", "salp1", "salp2", "masa"}

// PaperBackends returns the four paper architectures in figure order.
// The paper's figures (Fig. 1, Fig. 9, the headline tables) are defined
// over exactly this set; the full registry is for the generality
// experiments and the serving layer.
func PaperBackends() []Backend {
	out := make([]Backend, 0, len(paperBackendIDs))
	for _, id := range paperBackendIDs {
		b, ok := Lookup(id)
		if !ok {
			panic("dram: paper backend " + id + " not registered")
		}
		out = append(out, b)
	}
	return out
}

// init seeds the registry: the paper's four architectures (Table II
// testbed) and the generality presets of presets_more.go. Paper backend
// names match Arch.String() so labels derived from the registry render
// identically to the pre-registry enum labels.
func init() {
	MustRegister(Backend{ID: "ddr3", Name: "DDR3", Config: DDR3Config()})
	MustRegister(Backend{ID: "salp1", Name: "SALP-1", Config: SALP1Config()})
	MustRegister(Backend{ID: "salp2", Name: "SALP-2", Config: SALP2Config()})
	MustRegister(Backend{ID: "masa", Name: "SALP-MASA", Config: SALPMASAConfig()})
	MustRegister(Backend{ID: "ddr4", Name: "DDR4-2400", Config: DDR4Config()})
	MustRegister(Backend{ID: "lpddr3", Name: "LPDDR3-1600", Config: LPDDR3Config()})
	MustRegister(Backend{ID: "lpddr4", Name: "LPDDR4-3200", Config: LPDDR4Config()})
	MustRegister(Backend{ID: "hbm2", Name: "HBM2-PC", Config: HBM2Config()})
}
