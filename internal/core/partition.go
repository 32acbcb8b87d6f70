package core

import (
	"encoding/json"
	"fmt"
)

// Policy selects how the clustered peptide order is distributed across the
// machines of the system (paper §III-D).
type Policy uint8

const (
	// Chunk splits the clustered order into p contiguous blocks; it is the
	// conventional shared-memory partitioning and the paper's baseline.
	Chunk Policy = iota
	// Cyclic deals peptides round-robin over the machines, spreading every
	// group across the whole system; the paper's best policy.
	Cyclic
	// Random shuffles the clustered order with a seeded PRNG and then
	// chunk-splits it; quality depends on the seed (paper §III-D3).
	Random
	// RandomWithinGroups is an ablation variant of Random that shuffles
	// only within each group before chunk-splitting, preserving group
	// locality at chunk boundaries.
	RandomWithinGroups
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Chunk:
		return "chunk"
	case Cyclic:
		return "cyclic"
	case Random:
		return "random"
	case RandomWithinGroups:
		return "random-within-groups"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// MarshalJSON encodes the policy as its String name, keeping persisted
// session manifests readable and stable across renumbering.
func (p Policy) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON decodes a policy name as written by MarshalJSON.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParsePolicy(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// ParsePolicy converts a policy name as printed by String back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "chunk":
		return Chunk, nil
	case "cyclic":
		return Cyclic, nil
	case "random":
		return Random, nil
	case "random-within-groups":
		return RandomWithinGroups, nil
	}
	return 0, fmt.Errorf("core: unknown policy %q", s)
}

// Partition assigns the clustered peptide order to p machines under the
// given policy. The result's Assign[m] lists, for machine m, the positions
// in clustered order (indices into Grouping.Order) it owns. For the
// deterministic policies (Chunk, Cyclic) the positions are in ascending
// order; the Random policies list them in shuffled assignment order.
//
// seed is used only by the Random policies.
type Partition struct {
	Policy Policy
	P      int
	// Assign[m] holds clustered-order positions owned by machine m.
	Assign [][]int
}

// PartitionClustered distributes n clustered positions over p machines:
// PartitionWeighted with p equal weights, which deals each policy exactly
// as the paper describes it (contiguous chunks, round-robin from machine
// 0, and so on).
func PartitionClustered(g Grouping, p int, policy Policy, seed int64) (Partition, error) {
	if p < 1 {
		return Partition{}, fmt.Errorf("core: machine count %d must be >= 1", p)
	}
	weights := make([]float64, p)
	for m := range weights {
		weights[m] = 1
	}
	return PartitionWeighted(g, weights, policy, seed)
}

func makeRange(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// Sizes returns the number of peptides per machine.
func (p Partition) Sizes() []int {
	out := make([]int, p.P)
	for m, a := range p.Assign {
		out[m] = len(a)
	}
	return out
}

// GlobalIndices resolves machine m's clustered positions to original
// peptide-list indices using the grouping's Order.
func (p Partition) GlobalIndices(g Grouping, m int) []uint32 {
	a := p.Assign[m]
	out := make([]uint32, len(a))
	for i, pos := range a {
		out[i] = uint32(g.Order[pos])
	}
	return out
}
