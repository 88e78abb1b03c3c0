package cluster

import (
	"sort"
	"sync"
	"time"
)

// WorkerInfo identifies one registered worker.
type WorkerInfo struct {
	ID       string
	URL      string
	Capacity int
}

// member is one membership entry: the worker's info, its heartbeat
// freshness, and whether dispatch has condemned it.
type member struct {
	info     WorkerInfo
	lastSeen time.Time
	// dead marks a worker a dispatch observed failing; a fresh
	// heartbeat revives it (the process may have restarted behind the
	// same ID and URL).
	dead bool
}

// Membership tracks the coordinator's worker set under a heartbeat TTL.
// It is safe for concurrent use. The clock is injectable so stale-
// heartbeat behavior is testable without sleeping.
type Membership struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time
	members map[string]*member
}

// DefaultHeartbeatTTL is how long a registration stays live without a
// fresh heartbeat.
const DefaultHeartbeatTTL = 15 * time.Second

// NewMembership builds an empty membership. ttl <= 0 selects
// DefaultHeartbeatTTL; a nil clock selects time.Now.
func NewMembership(ttl time.Duration, now func() time.Time) *Membership {
	if ttl <= 0 {
		ttl = DefaultHeartbeatTTL
	}
	if now == nil {
		now = time.Now
	}
	return &Membership{ttl: ttl, now: now, members: make(map[string]*member)}
}

// TTL returns the heartbeat TTL.
func (m *Membership) TTL() time.Duration { return m.ttl }

// Heartbeat upserts a worker and refreshes its liveness. A worker
// previously marked dead is revived: a heartbeat is positive evidence
// the process behind the URL is back.
func (m *Membership) Heartbeat(info WorkerInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.members[info.ID] = &member{info: info, lastSeen: m.now()}
}

// MarkDead condemns a worker after a failed dispatch so retries skip it
// until its next heartbeat.
func (m *Membership) MarkDead(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mem, ok := m.members[id]; ok {
		mem.dead = true
	}
}

// live reports whether a member is dispatchable at time t.
func (mem *member) live(t time.Time, ttl time.Duration) bool {
	return !mem.dead && t.Sub(mem.lastSeen) <= ttl
}

// Live returns the dispatchable workers sorted by ID, so shard
// placement is deterministic for a fixed membership.
func (m *Membership) Live() []WorkerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.now()
	out := make([]WorkerInfo, 0, len(m.members))
	for _, mem := range m.members {
		if mem.live(t, m.ttl) {
			out = append(out, mem.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Snapshot returns every membership entry (live or not) sorted by ID,
// for GET /cluster/v1/workers.
func (m *Membership) Snapshot() []WorkerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.now()
	out := make([]WorkerStatus, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, WorkerStatus{
			ID:        mem.info.ID,
			URL:       mem.info.URL,
			Capacity:  mem.info.Capacity,
			Live:      mem.live(t, m.ttl),
			AgeMillis: t.Sub(mem.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
