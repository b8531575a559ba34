package sim

import "sort"

// Shard placement. A clock's components and ports carry optional locality
// groups (RegisterGrouped / AttachGrouped): components that exchange most of
// their traffic — a core, its DC-L1 node, their connecting pumps — declare
// the same group, and the partitioner keeps a group on one shard so the hot
// producer/consumer state stays in one worker's cache instead of bouncing
// between two. Components registered without a group are singleton groups.
//
// Placement is a pure function of the clock's registration sequence and the
// shard count: groups are ranked by first appearance, spread with a greedy
// longest-processing-time pass (heaviest group onto the least-loaded shard,
// every tie broken by lowest index), and the resulting plan is cached on the
// clock. None of this can affect results — the two-phase port contract makes
// intra-edge tick order irrelevant, so placement only chooses *where* a tick
// runs — which is also why the legacy strided (i mod n) placement survives as
// a test oracle behind Engine.SetStridedPlacement.

// shardPlan is the cached partition of one clock's components and ports
// across n shards. comps[s] and ports[s] list the indices shard s owns, in
// registration order; every index appears on exactly one shard. masks[s] is
// comps[s] as a bitset, which a shard intersects with the clock's active set
// to walk only its awake components.
type shardPlan struct {
	n       int
	strided bool
	comps   [][]int32
	ports   [][]int32
	masks   [][]uint64
}

// buildShardPlan partitions c's components and ports across n shards.
func buildShardPlan(c *Clock, n int, strided bool) *shardPlan {
	p := placeShards(c, n, strided)
	p.masks = make([][]uint64, n)
	for s, comps := range p.comps {
		p.masks[s] = make([]uint64, len(c.awake))
		for _, i := range comps {
			p.masks[s][i>>6] |= 1 << uint(i&63)
		}
	}
	return p
}

// placeShards decides which shard owns each component and port.
func placeShards(c *Clock, n int, strided bool) *shardPlan {
	p := &shardPlan{
		n:       n,
		strided: strided,
		comps:   make([][]int32, n),
		ports:   make([][]int32, n),
	}
	if strided {
		for i := range c.comps {
			s := i % n
			p.comps[s] = append(p.comps[s], int32(i))
		}
		for i := range c.ports {
			s := i % n
			p.ports[s] = append(p.ports[s], int32(i))
		}
		return p
	}
	// Normalize groups: explicit ids keep their identity, ungrouped (-1)
	// components become singleton groups. Rank = order of first appearance,
	// the deterministic tiebreak everywhere below.
	rank := map[int]int{}
	var weight []int
	compRank := make([]int, len(c.comps))
	for i, g := range c.groups {
		if g < 0 {
			compRank[i] = len(weight)
			weight = append(weight, 1)
			continue
		}
		r, ok := rank[g]
		if !ok {
			r = len(weight)
			rank[g] = r
			weight = append(weight, 0)
		}
		weight[r]++
		compRank[i] = r
	}
	// Greedy LPT: heaviest group first onto the least-loaded shard. The
	// stable sort keeps equal-weight groups in first-appearance order and
	// load ties resolve to the lowest shard index, so the assignment is a
	// pure function of the registration sequence.
	order := make([]int, len(weight))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weight[order[a]] > weight[order[b]]
	})
	shardOf := make([]int, len(weight))
	load := make([]int, n)
	for _, r := range order {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		shardOf[r] = best
		load[best] += weight[r]
	}
	for i := range c.comps {
		s := shardOf[compRank[i]]
		p.comps[s] = append(p.comps[s], int32(i))
	}
	// A port follows its producer's group so the shard that staged into it
	// also commits it. Ports with no (or an unknown) group spread strided:
	// any partition is correct, commits on distinct ports are independent.
	for i := range c.ports {
		s := i % n
		if g := c.portGroups[i]; g >= 0 {
			if r, ok := rank[g]; ok {
				s = shardOf[r]
			}
		}
		p.ports[s] = append(p.ports[s], int32(i))
	}
	return p
}

// planFor returns the clock's (n, strided) partition, rebuilding the cached
// plan only when the shard count or placement mode changed since last use
// (Register/Attach invalidate it).
func (c *Clock) planFor(n int, strided bool) *shardPlan {
	if p := c.plan; p != nil && p.n == n && p.strided == strided {
		return p
	}
	p := buildShardPlan(c, n, strided)
	c.plan = p
	return p
}

// Placement reports which shard each of a clock's components and ports runs
// on at the given shard count: Comps[s] and Ports[s] hold the indices
// (registration order) shard s owns. Strided selects the legacy i mod n
// assignment instead of the locality groups. For tests and diagnostics; the
// engine uses the same partition internally.
type Placement struct {
	Clock   string
	Shards  int
	Strided bool
	Comps   [][]int
	Ports   [][]int
}

// Placement computes the clock's shard assignment at n shards without
// touching the cached plan.
func (c *Clock) Placement(n int, strided bool) Placement {
	if n < 1 {
		n = 1
	}
	p := buildShardPlan(c, n, strided)
	pl := Placement{
		Clock: c.name, Shards: n, Strided: strided,
		Comps: make([][]int, n), Ports: make([][]int, n),
	}
	for s := 0; s < n; s++ {
		pl.Comps[s] = make([]int, len(p.comps[s]))
		for k, i := range p.comps[s] {
			pl.Comps[s][k] = int(i)
		}
		pl.Ports[s] = make([]int, len(p.ports[s]))
		for k, i := range p.ports[s] {
			pl.Ports[s][k] = int(i)
		}
	}
	return pl
}
