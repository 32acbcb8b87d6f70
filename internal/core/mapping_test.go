package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMappingTableBasic(t *testing.T) {
	g := Grouping{Order: []int{4, 2, 0, 3, 1}, Sizes: []int{5}}
	p, _ := PartitionClustered(g, 2, Cyclic, 0)
	// Cyclic: machine 0 gets positions 0,2,4 -> orig 4,0,1
	//         machine 1 gets positions 1,3   -> orig 2,3
	tbl := BuildMappingTable(g, p)
	if tbl.Machines() != 2 || tbl.Len() != 5 {
		t.Fatalf("table shape: machines=%d len=%d", tbl.Machines(), tbl.Len())
	}
	if tbl.MachineLen(0) != 3 || tbl.MachineLen(1) != 2 {
		t.Fatalf("machine lens = %d, %d", tbl.MachineLen(0), tbl.MachineLen(1))
	}
	cases := []struct {
		m    int
		v    uint32
		want uint32
	}{
		{0, 0, 4}, {0, 1, 0}, {0, 2, 1},
		{1, 0, 2}, {1, 1, 3},
	}
	for _, c := range cases {
		got, err := tbl.Lookup(c.m, c.v)
		if err != nil {
			t.Fatalf("Lookup(%d,%d): %v", c.m, c.v, err)
		}
		if got != c.want {
			t.Errorf("Lookup(%d,%d) = %d, want %d", c.m, c.v, got, c.want)
		}
	}
}

func TestMappingTableErrors(t *testing.T) {
	g := grouping(4, 2)
	p, _ := PartitionClustered(g, 2, Chunk, 0)
	tbl := BuildMappingTable(g, p)
	if _, err := tbl.Lookup(-1, 0); err == nil {
		t.Error("negative machine must fail")
	}
	if _, err := tbl.Lookup(2, 0); err == nil {
		t.Error("machine out of range must fail")
	}
	if _, err := tbl.Lookup(0, 99); err == nil {
		t.Error("virtual index out of range must fail")
	}
}

func TestMappingTableBijectionProperty(t *testing.T) {
	// Looking up every (machine, virtual) pair enumerates each global
	// index exactly once — the table is a bijection.
	rng := rand.New(rand.NewSource(71))
	policies := []Policy{Chunk, Cyclic, Random, RandomWithinGroups}
	f := func(nRaw, pRaw, polRaw uint8, seed int64) bool {
		n := int(nRaw)
		p := int(pRaw%12) + 1
		g := grouping(n, rng.Intn(19)+1)
		// Scramble Order to a random permutation for generality.
		rng.Shuffle(n, func(i, j int) { g.Order[i], g.Order[j] = g.Order[j], g.Order[i] })
		part, err := PartitionClustered(g, p, policies[int(polRaw)%len(policies)], seed)
		if err != nil {
			return false
		}
		tbl := BuildMappingTable(g, part)
		seen := make([]int, n)
		for m := 0; m < tbl.Machines(); m++ {
			for v := 0; v < tbl.MachineLen(m); v++ {
				gidx, err := tbl.Lookup(m, uint32(v))
				if err != nil {
					return false
				}
				seen[gidx]++
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

func TestMappingTableMemoryBytes(t *testing.T) {
	g := grouping(100, 10)
	p, _ := PartitionClustered(g, 4, Cyclic, 0)
	tbl := BuildMappingTable(g, p)
	want := 4*100 + 8*5
	if got := tbl.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestMappingTableSubset verifies that a subset table renumbers machines
// locally while lookups keep returning the original global indices — the
// property shard-set stores rely on.
func TestMappingTableSubset(t *testing.T) {
	g := Grouping{Order: []int{4, 2, 0, 3, 1, 5}, Sizes: []int{6}}
	p, _ := PartitionClustered(g, 3, Cyclic, 0)
	tbl := BuildMappingTable(g, p)

	sub, err := tbl.Subset([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Machines() != 2 {
		t.Fatalf("subset machines = %d, want 2", sub.Machines())
	}
	if sub.Len() != tbl.MachineLen(1)+tbl.MachineLen(2) {
		t.Fatalf("subset len = %d", sub.Len())
	}
	for local, global := range []int{1, 2} {
		if sub.MachineLen(local) != tbl.MachineLen(global) {
			t.Fatalf("machine %d len differs", local)
		}
		for v := 0; v < sub.MachineLen(local); v++ {
			got, err := sub.Lookup(local, uint32(v))
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := tbl.Lookup(global, uint32(v)); got != want {
				t.Fatalf("subset Lookup(%d,%d) = %d, want %d", local, v, got, want)
			}
		}
	}

	// Subsets survive the binary round-trip the store uses.
	blob, err := sub.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMappingTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != sub.Len() || back.Machines() != sub.Machines() {
		t.Fatalf("round-trip shape differs")
	}

	for _, bad := range [][]int{{-1}, {3}, {0, 7}} {
		if _, err := tbl.Subset(bad); err == nil {
			t.Fatalf("Subset(%v): expected an error", bad)
		}
	}
}
