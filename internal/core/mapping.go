package core

import "fmt"

// MappingTable is the master machine's translation from (machine, virtual
// index) pairs to original peptide index entries, as described in §III-D:
// a single array of size N whose m-th chunk holds the global indices owned
// by machine m; lookup is one memory access.
type MappingTable struct {
	entries []uint32 // concatenated per-machine global indices
	offsets []int    // offsets[m] is the start of machine m's chunk; len p+1
}

// BuildMappingTable constructs the table from a partition and grouping.
func BuildMappingTable(g Grouping, p Partition) MappingTable {
	var t MappingTable
	t.offsets = make([]int, p.P+1)
	total := 0
	for m := 0; m < p.P; m++ {
		t.offsets[m] = total
		total += len(p.Assign[m])
	}
	t.offsets[p.P] = total
	t.entries = make([]uint32, total)
	for m := 0; m < p.P; m++ {
		copy(t.entries[t.offsets[m]:], p.GlobalIndices(g, m))
	}
	return t
}

// Machines returns the number of machines the table covers.
func (t MappingTable) Machines() int { return len(t.offsets) - 1 }

// Len returns the total number of peptide entries.
func (t MappingTable) Len() int { return len(t.entries) }

// MachineLen returns the number of entries owned by machine m.
func (t MappingTable) MachineLen(m int) int {
	return t.offsets[m+1] - t.offsets[m]
}

// Lookup maps machine m's virtual index v to the global peptide index.
// This is the O(1) backtracking step of Fig. 4.
func (t MappingTable) Lookup(m int, v uint32) (uint32, error) {
	if m < 0 || m >= t.Machines() {
		return 0, fmt.Errorf("core: machine %d out of range [0,%d)", m, t.Machines())
	}
	i := t.offsets[m] + int(v)
	if i >= t.offsets[m+1] {
		return 0, fmt.Errorf("core: virtual index %d out of range for machine %d (has %d)", v, m, t.MachineLen(m))
	}
	return t.entries[i], nil
}

// MemoryBytes returns the table's memory footprint in bytes, counted for
// the memory-overhead experiment (Fig. 5): 4 bytes per entry plus offsets.
func (t MappingTable) MemoryBytes() int {
	return 4*len(t.entries) + 8*len(t.offsets)
}

// Subset returns the table restricted to the given machines, renumbered
// 0..len(machines)-1 in the given order. Lookups on the subset still
// return the original global peptide indices, so a shard-set slice of a
// partitioned store backtracks matches to exactly the identities the
// whole-store table reports — the property the scatter/gather merge's
// byte-identity rests on.
func (t MappingTable) Subset(machines []int) (MappingTable, error) {
	var out MappingTable
	out.offsets = make([]int, 1, len(machines)+1)
	for _, m := range machines {
		if m < 0 || m >= t.Machines() {
			return MappingTable{}, fmt.Errorf("core: subset machine %d out of range [0,%d)", m, t.Machines())
		}
		out.entries = append(out.entries, t.entries[t.offsets[m]:t.offsets[m+1]]...)
		out.offsets = append(out.offsets, len(out.entries))
	}
	return out, nil
}
