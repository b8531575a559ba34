package cache

// PresenceStage is the two-phase face of a shared Presence tracker: one
// stage per L1 controller. During a tick the controller reads the committed
// presence map (PresentElsewhere/Replicas) and stages its OnInstall/OnEvict
// mutations locally; the gpu layer applies every node's staged ops at the
// core clock's edge barrier, in node registration order. Reads therefore see
// the state as of the previous edge whichever nodes have already ticked on
// this one, which keeps replication statistics independent of intra-edge
// tick order (and of which sleeping nodes the fast path skips).
type PresenceStage struct {
	shared *Presence
	ops    []presenceOp
}

type presenceOp struct {
	line  uint64
	cache int32
	evict bool
}

// NewPresenceStage returns a stage whose reads and (deferred) writes target
// shared.
func NewPresenceStage(shared *Presence) *PresenceStage {
	return &PresenceStage{shared: shared}
}

// OnInstall stages an install; it reaches the shared tracker at Apply.
func (s *PresenceStage) OnInstall(cacheID int, line uint64) {
	s.ops = append(s.ops, presenceOp{line: line, cache: int32(cacheID)})
}

// OnEvict stages an eviction; it reaches the shared tracker at Apply.
func (s *PresenceStage) OnEvict(cacheID int, line uint64) {
	s.ops = append(s.ops, presenceOp{line: line, cache: int32(cacheID), evict: true})
}

// PresentElsewhere reads the committed (previous-edge) presence state.
func (s *PresenceStage) PresentElsewhere(cacheID int, line uint64) bool {
	return s.shared.PresentElsewhere(cacheID, line)
}

// Replicas reads the committed (previous-edge) replica count.
func (s *PresenceStage) Replicas(line uint64) int {
	return s.shared.Replicas(line)
}

// Apply publishes the staged ops into the shared tracker in staging order.
// Called at the edge barrier, never concurrently with controller ticks.
func (s *PresenceStage) Apply() {
	for _, op := range s.ops {
		if op.evict {
			s.shared.OnEvict(int(op.cache), op.line)
		} else {
			s.shared.OnInstall(int(op.cache), op.line)
		}
	}
	s.ops = s.ops[:0]
}
