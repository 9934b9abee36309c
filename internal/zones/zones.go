// Package zones implements zone configurations (paper §3.2) — the low-level
// placement primitives that the multi-region abstractions compile into —
// and the replica allocator that realizes them: constraint satisfaction
// plus diversity-scored placement across failure domains.
package zones

import (
	"fmt"
	"sort"

	"mrdb/internal/simnet"
)

// Config mirrors the zone-configuration fields of paper Listing 1.
type Config struct {
	// NumReplicas is the total replica count (voting + non-voting).
	NumReplicas int
	// NumVoters is the voting replica count; NumReplicas - NumVoters
	// replicas are non-voting.
	NumVoters int
	// Constraints fixes a replica count per region (voting or not),
	// allowing the remainder to be placed freely.
	Constraints map[simnet.Region]int
	// VoterConstraints is like Constraints but for voters only.
	VoterConstraints map[simnet.Region]int
	// LeasePreferences pins the leaseholder to a region so reads can be
	// served from within it. Empty means no preference.
	LeasePreferences []simnet.Region
}

// Clone deep-copies the config.
func (c Config) Clone() Config {
	out := c
	out.Constraints = map[simnet.Region]int{}
	for k, v := range c.Constraints {
		out.Constraints[k] = v
	}
	out.VoterConstraints = map[simnet.Region]int{}
	for k, v := range c.VoterConstraints {
		out.VoterConstraints[k] = v
	}
	out.LeasePreferences = append([]simnet.Region(nil), c.LeasePreferences...)
	return out
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.NumReplicas <= 0 {
		return fmt.Errorf("zones: num_replicas must be positive, got %d", c.NumReplicas)
	}
	if c.NumVoters <= 0 || c.NumVoters > c.NumReplicas {
		return fmt.Errorf("zones: num_voters %d out of range (num_replicas %d)", c.NumVoters, c.NumReplicas)
	}
	sum := 0
	for _, n := range c.Constraints {
		sum += n
	}
	if sum > c.NumReplicas {
		return fmt.Errorf("zones: constraints require %d replicas > num_replicas %d", sum, c.NumReplicas)
	}
	vsum := 0
	for _, n := range c.VoterConstraints {
		vsum += n
	}
	if vsum > c.NumVoters {
		return fmt.Errorf("zones: voter_constraints require %d voters > num_voters %d", vsum, c.NumVoters)
	}
	return nil
}

// Prefers reports whether r is one of the config's lease preferences.
func (c Config) Prefers(r simnet.Region) bool {
	for _, pref := range c.LeasePreferences {
		if pref == r {
			return true
		}
	}
	return false
}

// String renders the config in the paper's Listing 1 style.
func (c Config) String() string {
	s := fmt.Sprintf("num_replicas=%d num_voters=%d", c.NumReplicas, c.NumVoters)
	appendRegions := func(label string, m map[simnet.Region]int) {
		if len(m) == 0 {
			return
		}
		keys := make([]string, 0, len(m))
		for r := range m {
			keys = append(keys, string(r))
		}
		sort.Strings(keys)
		s += " " + label + "={"
		for i, k := range keys {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("+region=%s:%d", k, m[simnet.Region(k)])
		}
		s += "}"
	}
	appendRegions("constraints", c.Constraints)
	appendRegions("voter_constraints", c.VoterConstraints)
	if len(c.LeasePreferences) > 0 {
		s += fmt.Sprintf(" lease_preferences=[[+region=%s]]", c.LeasePreferences[0])
	}
	return s
}

// Placement is the allocator's output.
type Placement struct {
	Voters    []simnet.NodeID
	NonVoters []simnet.NodeID
	// Leaseholder is the suggested initial leaseholder, honoring lease
	// preferences.
	Leaseholder simnet.NodeID
}

// Replicas returns voters then non-voters.
func (p Placement) Replicas() []simnet.NodeID {
	return append(append([]simnet.NodeID{}, p.Voters...), p.NonVoters...)
}

// Allocator chooses replica placements that satisfy a Config while
// maximizing failure-domain diversity (paper §3.2: "candidates are assigned
// a diversity score such that nodes that do not share localities with
// already placed replicas are ranked higher").
type Allocator struct {
	Topo *simnet.Topology
	// Load optionally maps node → current replica count; lower-loaded
	// nodes win ties.
	Load map[simnet.NodeID]int
}

// candidateScore ranks a node against already-chosen replicas: prefer new
// regions, then new zones, then low load, then low ID (determinism).
func (a *Allocator) candidateScore(id simnet.NodeID, chosen []simnet.NodeID) (int, int, int, int) {
	loc, _ := a.Topo.LocalityOf(id)
	regionShared, zoneShared := 0, 0
	for _, c := range chosen {
		cl, _ := a.Topo.LocalityOf(c)
		if cl.Region == loc.Region {
			regionShared++
			if cl.Zone == loc.Zone {
				zoneShared++
			}
		}
	}
	return zoneShared, regionShared, a.Load[id], int(id)
}

// pick selects count nodes from candidates, greedily maximizing diversity.
func (a *Allocator) pick(candidates []simnet.NodeID, count int, chosen *[]simnet.NodeID, used map[simnet.NodeID]bool) ([]simnet.NodeID, error) {
	var out []simnet.NodeID
	for len(out) < count {
		best := simnet.NodeID(0)
		bz, br, bl, bi := 1<<30, 1<<30, 1<<30, 1<<30
		for _, c := range candidates {
			if used[c] {
				continue
			}
			z, r, l, i := a.candidateScore(c, *chosen)
			if z < bz || (z == bz && (r < br || (r == br && (l < bl || (l == bl && i < bi))))) {
				best, bz, br, bl, bi = c, z, r, l, i
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("zones: not enough nodes (%d of %d placed)", len(out), count)
		}
		used[best] = true
		*chosen = append(*chosen, best)
		out = append(out, best)
	}
	return out, nil
}

// Allocate computes a placement for cfg over the current topology. The
// placement must satisfy cfg exactly (CheckPlacement): one that does not is
// an allocator bug, reported as an error rather than placed.
func (a *Allocator) Allocate(cfg Config) (Placement, error) {
	if err := cfg.Validate(); err != nil {
		return Placement{}, err
	}
	used := map[simnet.NodeID]bool{}
	var chosen []simnet.NodeID
	var voters, nonVoters []simnet.NodeID

	regionsSorted := func(m map[simnet.Region]int) []simnet.Region {
		out := make([]simnet.Region, 0, len(m))
		for r := range m {
			out = append(out, r)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	// 1. Voters pinned by voter_constraints.
	for _, r := range regionsSorted(cfg.VoterConstraints) {
		picked, err := a.pick(a.Topo.NodesInRegion(r), cfg.VoterConstraints[r], &chosen, used)
		if err != nil {
			return Placement{}, fmt.Errorf("voter_constraints %s: %w", r, err)
		}
		voters = append(voters, picked...)
	}
	// 2. Remaining voters anywhere, diversity-first.
	if rem := cfg.NumVoters - len(voters); rem > 0 {
		picked, err := a.pick(a.Topo.Nodes(), rem, &chosen, used)
		if err != nil {
			return Placement{}, err
		}
		voters = append(voters, picked...)
	}
	// 3. Non-voters pinned by constraints, net of voters already there.
	votersPerRegion := map[simnet.Region]int{}
	for _, v := range voters {
		l, _ := a.Topo.LocalityOf(v)
		votersPerRegion[l.Region]++
	}
	for _, r := range regionsSorted(cfg.Constraints) {
		need := cfg.Constraints[r] - votersPerRegion[r]
		if need <= 0 {
			continue
		}
		picked, err := a.pick(a.Topo.NodesInRegion(r), need, &chosen, used)
		if err != nil {
			return Placement{}, fmt.Errorf("constraints %s: %w", r, err)
		}
		nonVoters = append(nonVoters, picked...)
	}
	// 4. Remaining non-voters anywhere.
	if rem := cfg.NumReplicas - len(voters) - len(nonVoters); rem > 0 {
		picked, err := a.pick(a.Topo.Nodes(), rem, &chosen, used)
		if err != nil {
			return Placement{}, err
		}
		nonVoters = append(nonVoters, picked...)
	}

	p := Placement{Voters: voters, NonVoters: nonVoters}
	p.Leaseholder = a.chooseLeaseholder(cfg, voters)
	if err := a.CheckPlacement(cfg, p); err != nil {
		return Placement{}, err
	}
	return p, nil
}

// chooseLeaseholder honors lease preferences among voters; the leaseholder
// must be a voter (it is normally also the Raft leader).
func (a *Allocator) chooseLeaseholder(cfg Config, voters []simnet.NodeID) simnet.NodeID {
	for _, pref := range cfg.LeasePreferences {
		for _, v := range voters {
			l, _ := a.Topo.LocalityOf(v)
			if l.Region == pref {
				return v
			}
		}
	}
	if len(voters) > 0 {
		return voters[0]
	}
	return 0
}

// CheckPlacement verifies that a placement satisfies cfg exactly: the
// configured counts, everything CheckPlacementDuring checks, and a lease
// preference that some voter could satisfy.
func (a *Allocator) CheckPlacement(cfg Config, p Placement) error {
	if len(p.Voters) != cfg.NumVoters {
		return fmt.Errorf("zones: %d voters, want %d", len(p.Voters), cfg.NumVoters)
	}
	if len(p.Voters)+len(p.NonVoters) != cfg.NumReplicas {
		return fmt.Errorf("zones: %d replicas, want %d", len(p.Voters)+len(p.NonVoters), cfg.NumReplicas)
	}
	if err := a.CheckPlacementDuring(cfg, p); err != nil {
		return err
	}
	if p.Leaseholder == 0 {
		return nil
	}
	l, _ := a.Topo.LocalityOf(p.Leaseholder)
	if cfg.Prefers(l.Region) {
		return nil
	}
	// A preference violation is only an error when some voter could
	// satisfy it.
	for _, v := range p.Voters {
		if vl, _ := a.Topo.LocalityOf(v); cfg.Prefers(vl.Region) {
			return fmt.Errorf("zones: leaseholder in %s violates satisfiable preference %v", l.Region, cfg.LeasePreferences)
		}
	}
	return nil
}

// CheckPlacementDuring is the mid-migration relaxation of CheckPlacement.
// Relocations add replicas before removing them, so during a migration the
// placement may exceed the configured counts — but it must never drop
// below them, never place a node twice, and never dip under a region
// constraint: survivability holds throughout. Lease preferences are not
// checked because a lease legitimately sits outside the preferred region
// for the instants between a migration's membership and lease-transfer
// steps.
func (a *Allocator) CheckPlacementDuring(cfg Config, p Placement) error {
	if len(p.Voters) < cfg.NumVoters {
		return fmt.Errorf("zones: %d voters, want at least %d", len(p.Voters), cfg.NumVoters)
	}
	if len(p.Voters)+len(p.NonVoters) < cfg.NumReplicas {
		return fmt.Errorf("zones: %d replicas, want at least %d", len(p.Voters)+len(p.NonVoters), cfg.NumReplicas)
	}
	perRegion := map[simnet.Region]int{}
	votersPerRegion := map[simnet.Region]int{}
	seen := map[simnet.NodeID]bool{}
	for _, id := range p.Replicas() {
		if seen[id] {
			return fmt.Errorf("zones: node %d placed twice", id)
		}
		seen[id] = true
		l, ok := a.Topo.LocalityOf(id)
		if !ok {
			return fmt.Errorf("zones: node %d not in topology", id)
		}
		perRegion[l.Region]++
	}
	for _, id := range p.Voters {
		l, _ := a.Topo.LocalityOf(id)
		votersPerRegion[l.Region]++
	}
	for r, n := range cfg.Constraints {
		if perRegion[r] < n {
			return fmt.Errorf("zones: region %s has %d replicas, constraint wants %d", r, perRegion[r], n)
		}
	}
	for r, n := range cfg.VoterConstraints {
		if votersPerRegion[r] < n {
			return fmt.Errorf("zones: region %s has %d voters, voter_constraint wants %d", r, votersPerRegion[r], n)
		}
	}
	return nil
}
