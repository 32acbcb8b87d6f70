package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWeightedUniformMatchesUnweighted(t *testing.T) {
	g := grouping(100, 10)
	uniform := []float64{1, 1, 1, 1}
	for _, pol := range []Policy{Chunk, Cyclic, Random, RandomWithinGroups} {
		a, err := PartitionClustered(g, 4, pol, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PartitionWeighted(g, uniform, pol, 42)
		if err != nil {
			t.Fatal(err)
		}
		for m := range a.Assign {
			if len(a.Assign[m]) != len(b.Assign[m]) {
				t.Fatalf("%v machine %d: %d vs %d", pol, m, len(a.Assign[m]), len(b.Assign[m]))
			}
			for i := range a.Assign[m] {
				if a.Assign[m][i] != b.Assign[m][i] {
					t.Fatalf("%v machine %d pos %d: %d vs %d",
						pol, m, i, a.Assign[m][i], b.Assign[m][i])
				}
			}
		}
	}
}

func TestWeightedProportionality(t *testing.T) {
	g := grouping(1000, 20)
	weights := []float64{4, 2, 1, 1}
	sum := 8.0
	for _, pol := range []Policy{Chunk, Cyclic, Random, RandomWithinGroups} {
		part, err := PartitionWeighted(g, weights, pol, 7)
		if err != nil {
			t.Fatal(err)
		}
		for m, w := range weights {
			want := 1000 * w / sum
			got := float64(len(part.Assign[m]))
			if math.Abs(got-want) > 4 { // SWRR drift is bounded by p
				t.Errorf("%v machine %d: %v peptides, want ~%v", pol, m, got, want)
			}
		}
	}
}

func TestWeightedCoverProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	policies := []Policy{Chunk, Cyclic, Random, RandomWithinGroups}
	f := func(nRaw uint8, pRaw, polRaw uint8, seed int64) bool {
		n := int(nRaw)
		p := int(pRaw%8) + 1
		weights := make([]float64, p)
		for i := range weights {
			weights[i] = rng.Float64()*9 + 1
		}
		g := grouping(n, rng.Intn(19)+1)
		part, err := PartitionWeighted(g, weights, policies[int(polRaw)%len(policies)], seed)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWeightedCyclicSpreadsGroups(t *testing.T) {
	// Every window of the clustered order must be spread across machines
	// roughly by weight; check the first group of 16 under weights 3:1.
	g := grouping(64, 16)
	part, err := PartitionWeighted(g, []float64{3, 1}, Cyclic, 0)
	if err != nil {
		t.Fatal(err)
	}
	machineOf := machineOf(part)
	counts := [2]int{}
	for pos := 0; pos < 16; pos++ {
		counts[machineOf[pos]]++
	}
	if counts[0] != 12 || counts[1] != 4 {
		t.Errorf("first group split %v, want [12 4]", counts)
	}
}

func TestWeightedErrors(t *testing.T) {
	g := grouping(10, 5)
	if _, err := PartitionWeighted(g, nil, Chunk, 0); err == nil {
		t.Error("empty weights must fail")
	}
	if _, err := PartitionWeighted(g, []float64{1, 0}, Chunk, 0); err == nil {
		t.Error("zero weight must fail")
	}
	if _, err := PartitionWeighted(g, []float64{1, -2}, Cyclic, 0); err == nil {
		t.Error("negative weight must fail")
	}
	if _, err := PartitionWeighted(g, []float64{1, 1}, Policy(77), 0); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestApportion(t *testing.T) {
	sizes := apportion(10, []float64{1, 1, 1}, 3)
	if sizes[0]+sizes[1]+sizes[2] != 10 {
		t.Fatalf("apportion sum = %v", sizes)
	}
	// 10/3: largest remainder gives 4,3,3.
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("sizes = %v, want [4 3 3]", sizes)
	}
	sizes = apportion(7, []float64{5, 1}, 6)
	if sizes[0] != 6 || sizes[1] != 1 {
		t.Errorf("sizes = %v, want [6 1]", sizes)
	}
	sizes = apportion(0, []float64{2, 3}, 5)
	if sizes[0] != 0 || sizes[1] != 0 {
		t.Errorf("sizes = %v, want zeros", sizes)
	}
}

func TestSWRREqualWeightsIsRoundRobin(t *testing.T) {
	s := newSWRR([]float64{1, 1, 1})
	for i := 0; i < 30; i++ {
		if got := s.next(); got != i%3 {
			t.Fatalf("step %d: machine %d, want %d", i, got, i%3)
		}
	}
}

func TestSWRRProportionsProperty(t *testing.T) {
	f := func(aRaw, bRaw, cRaw uint8) bool {
		w := []float64{float64(aRaw%9) + 1, float64(bRaw%9) + 1, float64(cRaw%9) + 1}
		s := newSWRR(w)
		const steps = 9000
		counts := [3]int{}
		for i := 0; i < steps; i++ {
			counts[s.next()]++
		}
		sum := w[0] + w[1] + w[2]
		for m := range w {
			want := steps * w[m] / sum
			if math.Abs(float64(counts[m])-want) > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
