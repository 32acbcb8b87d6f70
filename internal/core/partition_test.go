package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func grouping(n, groupSize int) Grouping {
	g := Grouping{Order: make([]int, n)}
	for i := range g.Order {
		g.Order[i] = i
	}
	for n > 0 {
		sz := groupSize
		if sz > n {
			sz = n
		}
		g.Sizes = append(g.Sizes, sz)
		n -= sz
	}
	return g
}

func TestChunkPartition(t *testing.T) {
	g := grouping(10, 4)
	p, err := PartitionClustered(g, 3, Chunk, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 10 over 3: sizes 4,3,3, contiguous.
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for m := range want {
		if len(p.Assign[m]) != len(want[m]) {
			t.Fatalf("machine %d = %v, want %v", m, p.Assign[m], want[m])
		}
		for i := range want[m] {
			if p.Assign[m][i] != want[m][i] {
				t.Fatalf("machine %d = %v, want %v", m, p.Assign[m], want[m])
			}
		}
	}
}

func TestCyclicPartition(t *testing.T) {
	g := grouping(7, 3)
	p, err := PartitionClustered(g, 3, Cyclic, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 3, 6}, {1, 4}, {2, 5}}
	for m := range want {
		got := p.Assign[m]
		if len(got) != len(want[m]) {
			t.Fatalf("machine %d = %v, want %v", m, got, want[m])
		}
		for i := range want[m] {
			if got[i] != want[m][i] {
				t.Fatalf("machine %d = %v, want %v", m, got, want[m])
			}
		}
	}
}

// machineOf returns, for every clustered position, the machine that
// owns it: the inverse view of p.Assign.
func machineOf(p Partition) []int {
	n := 0
	for _, a := range p.Assign {
		n += len(a)
	}
	out := make([]int, n)
	for m, a := range p.Assign {
		for _, pos := range a {
			out[pos] = m
		}
	}
	return out
}

func TestCyclicBalancesEveryGroup(t *testing.T) {
	// With cyclic distribution, any window of p consecutive clustered
	// positions touches every machine exactly once, so each group of size
	// >= p is spread over all machines.
	g := grouping(64, 16)
	p, _ := PartitionClustered(g, 4, Cyclic, 0)
	machineOf := machineOf(p)
	start := 0
	for _, sz := range g.Sizes {
		counts := make([]int, 4)
		for k := start; k < start+sz; k++ {
			counts[machineOf[k]]++
		}
		for m, c := range counts {
			if c != sz/4 {
				t.Fatalf("group at %d: machine %d holds %d of %d", start, m, c, sz)
			}
		}
		start += sz
	}
}

func TestRandomPartitionDeterministicBySeed(t *testing.T) {
	g := grouping(100, 10)
	a, _ := PartitionClustered(g, 4, Random, 42)
	b, _ := PartitionClustered(g, 4, Random, 42)
	c, _ := PartitionClustered(g, 4, Random, 43)
	same := func(x, y Partition) bool {
		for m := range x.Assign {
			if len(x.Assign[m]) != len(y.Assign[m]) {
				return false
			}
			for i := range x.Assign[m] {
				if x.Assign[m][i] != y.Assign[m][i] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed must give the same partition")
	}
	if same(a, c) {
		t.Error("different seeds should differ (unless astronomically unlucky)")
	}
}

func TestPartitionCoverProperty(t *testing.T) {
	// Every policy must assign each clustered position to exactly one
	// machine ("disjoint cover").
	rng := rand.New(rand.NewSource(67))
	policies := []Policy{Chunk, Cyclic, Random, RandomWithinGroups}
	f := func(nRaw, pRaw, polRaw uint8, seed int64) bool {
		n := int(nRaw)
		p := int(pRaw%16) + 1
		pol := policies[int(polRaw)%len(policies)]
		g := grouping(n, rng.Intn(19)+1)
		part, err := PartitionClustered(g, p, pol, seed)
		if err != nil {
			return false
		}
		seen := make([]int, n)
		for _, a := range part.Assign {
			for _, pos := range a {
				if pos < 0 || pos >= n {
					return false
				}
				seen[pos]++
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPartitionSizeBalanceProperty(t *testing.T) {
	// Chunk, Cyclic and Random give machine sizes within 1 of each other.
	policies := []Policy{Chunk, Cyclic, Random}
	f := func(nRaw uint16, pRaw, polRaw uint8, seed int64) bool {
		n := int(nRaw % 2000)
		p := int(pRaw%16) + 1
		pol := policies[int(polRaw)%len(policies)]
		g := grouping(n, 20)
		part, err := PartitionClustered(g, p, pol, seed)
		if err != nil {
			return false
		}
		mn, mx := n, 0
		for _, sz := range part.Sizes() {
			if sz < mn {
				mn = sz
			}
			if sz > mx {
				mx = sz
			}
		}
		return mx-mn <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPartitionErrors(t *testing.T) {
	g := grouping(5, 2)
	if _, err := PartitionClustered(g, 0, Chunk, 0); err == nil {
		t.Error("p=0 must fail")
	}
	if _, err := PartitionClustered(g, 2, Policy(99), 0); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, pol := range []Policy{Chunk, Cyclic, Random, RandomWithinGroups} {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("round trip %v failed: %v %v", pol, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy must fail to parse")
	}
}

func TestMoreMachinesThanPeptides(t *testing.T) {
	g := grouping(3, 2)
	for _, pol := range []Policy{Chunk, Cyclic, Random, RandomWithinGroups} {
		part, err := PartitionClustered(g, 8, pol, 1)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		total := 0
		for _, a := range part.Assign {
			total += len(a)
		}
		if total != 3 {
			t.Errorf("%v: assigned %d, want 3", pol, total)
		}
	}
}

func TestGlobalIndices(t *testing.T) {
	// Order maps clustered positions back to original indices.
	g := Grouping{Order: []int{2, 0, 1}, Sizes: []int{3}}
	p, _ := PartitionClustered(g, 2, Chunk, 0)
	m0 := p.GlobalIndices(g, 0) // positions 0,1 -> orig 2,0
	if len(m0) != 2 || m0[0] != 2 || m0[1] != 0 {
		t.Errorf("machine 0 global indices = %v", m0)
	}
	m1 := p.GlobalIndices(g, 1) // position 2 -> orig 1
	if len(m1) != 1 || m1[0] != 1 {
		t.Errorf("machine 1 global indices = %v", m1)
	}
}

// TestPartitionInvariants pins, for every policy, the contract Partition
// documents: Assign partitions 0..n-1 exactly (no duplicates, no gaps),
// and the deterministic policies (Chunk, Cyclic) list positions in
// ascending order.
func TestPartitionInvariants(t *testing.T) {
	policies := []Policy{Chunk, Cyclic, Random, RandomWithinGroups}
	for _, policy := range policies {
		for _, n := range []int{0, 1, 7, 64, 251} {
			for _, p := range []int{1, 3, 8} {
				g := grouping(n, 5)
				part, err := PartitionClustered(g, p, policy, 42)
				if err != nil {
					t.Fatalf("%v n=%d p=%d: %v", policy, n, p, err)
				}
				seen := make([]int, n) // occurrences per position
				for m, a := range part.Assign {
					for _, pos := range a {
						if pos < 0 || pos >= n {
							t.Fatalf("%v n=%d p=%d: machine %d owns out-of-range position %d", policy, n, p, m, pos)
						}
						seen[pos]++
					}
				}
				for pos, c := range seen {
					if c != 1 {
						t.Fatalf("%v n=%d p=%d: position %d assigned %d times", policy, n, p, pos, c)
					}
				}
				if policy == Chunk || policy == Cyclic {
					for m, a := range part.Assign {
						for i := 1; i < len(a); i++ {
							if a[i] <= a[i-1] {
								t.Fatalf("%v n=%d p=%d: machine %d positions not ascending: %v", policy, n, p, m, a)
							}
						}
					}
				}
			}
		}
	}
}
