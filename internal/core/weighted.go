package core

import (
	"fmt"
	"math/rand"
)

// PartitionWeighted distributes the clustered peptide order over machines
// proportionally to their weights (relative compute speeds). It realizes
// the "load-predicting model for heterogeneous memory-distributed
// architectures" the paper lists as future work (§VIII): a machine that is
// twice as fast receives twice the peptides, so equal *time* per machine
// replaces equal *count*.
//
// PartitionClustered is this function with equal weights: Cyclic then
// deals i mod p, and Chunk cuts N/p blocks with the remainder on the
// leading machines.
func PartitionWeighted(g Grouping, weights []float64, policy Policy, seed int64) (Partition, error) {
	p := len(weights)
	if p < 1 {
		return Partition{}, fmt.Errorf("core: need at least one machine weight")
	}
	sum := 0.0
	for m, w := range weights {
		if w <= 0 {
			return Partition{}, fmt.Errorf("core: weight %g of machine %d must be positive", w, m)
		}
		sum += w
	}
	n := len(g.Order)
	part := Partition{Policy: policy, P: p, Assign: make([][]int, p)}

	switch policy {
	case Chunk:
		// Contiguous blocks of the clustered order.
		sizes := apportion(n, weights, sum)
		pos := 0
		for m := 0; m < p; m++ {
			part.Assign[m] = makeRange(pos, pos+sizes[m])
			pos += sizes[m]
		}

	case Cyclic:
		// Smooth weighted round-robin: deterministic, spreads every
		// group, and converges to the weight proportions.
		dealer := newSWRR(weights)
		for m := 0; m < p; m++ {
			part.Assign[m] = make([]int, 0, int(float64(n)*weights[m]/sum)+1)
		}
		for i := 0; i < n; i++ {
			m := dealer.next()
			part.Assign[m] = append(part.Assign[m], i)
		}

	case Random:
		// chunk(shuffle(i)): shuffle the whole clustered order, then chunk.
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		sizes := apportion(n, weights, sum)
		pos := 0
		for m := 0; m < p; m++ {
			part.Assign[m] = append([]int(nil), perm[pos:pos+sizes[m]]...)
			pos += sizes[m]
		}

	case RandomWithinGroups:
		// Shuffle within each group, then deal its members by the
		// weighted round-robin, continuing where the last group stopped
		// so small groups do not always favor machine 0.
		rng := rand.New(rand.NewSource(seed))
		dealer := newSWRR(weights)
		for m := 0; m < p; m++ {
			part.Assign[m] = make([]int, 0, int(float64(n)*weights[m]/sum)+1)
		}
		start := 0
		for _, sz := range g.Sizes {
			members := makeRange(start, start+sz)
			rng.Shuffle(len(members), func(i, j int) {
				members[i], members[j] = members[j], members[i]
			})
			for _, pos := range members {
				m := dealer.next()
				part.Assign[m] = append(part.Assign[m], pos)
			}
			start += sz
		}

	default:
		return Partition{}, fmt.Errorf("core: unknown policy %v", policy)
	}
	return part, nil
}

// apportion splits n items into len(weights) integer shares proportional
// to the weights using the largest-remainder method, ties broken by
// machine index for determinism.
func apportion(n int, weights []float64, sum float64) []int {
	p := len(weights)
	sizes := make([]int, p)
	rems := make([]float64, p)
	used := 0
	for m, w := range weights {
		exact := float64(n) * w / sum
		sizes[m] = int(exact)
		rems[m] = exact - float64(sizes[m])
		used += sizes[m]
	}
	for used < n {
		best := 0
		for m := 1; m < p; m++ {
			if rems[m] > rems[best] {
				best = m
			}
		}
		sizes[best]++
		rems[best] = -1
		used++
	}
	return sizes
}

// swrr is nginx-style smooth weighted round-robin: repeatedly add each
// weight to a running current, emit the machine with the largest current,
// then subtract the total. Deterministic; with equal weights it emits
// 0,1,...,p-1 cyclically.
type swrr struct {
	weights []float64
	current []float64
	total   float64
}

func newSWRR(weights []float64) *swrr {
	s := &swrr{weights: weights, current: make([]float64, len(weights))}
	for _, w := range weights {
		s.total += w
	}
	return s
}

func (s *swrr) next() int {
	best := 0
	for m := range s.current {
		s.current[m] += s.weights[m]
		if s.current[m] > s.current[best] {
			best = m
		}
	}
	s.current[best] -= s.total
	return best
}
