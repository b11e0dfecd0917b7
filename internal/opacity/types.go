// Package opacity implements the paper's privacy model: vertex-pair
// types (Definition 1), the per-type L-opacity ratio (Definition 2), and
// the graph-level maximum opacity (Definition 3, computed by the paper's
// Algorithm 1), together with an incremental tracker that keeps per-type
// counts current across edge mutations without full recomputation.
package opacity

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/apsp"
)

// TypeAssigner classifies unordered vertex pairs into types of interest
// (paper Definition 1). Implementations must be stable: the type of a
// pair never changes across graph mutations, because the paper's
// publication model fixes types from properties of the ORIGINAL graph
// (by default, original degrees).
type TypeAssigner interface {
	// TypeOf returns the type ID of the unordered pair {u, v}, or -1 if
	// the pair belongs to no type (pairs "indifferent to us").
	TypeOf(u, v int) int
	// NumTypes returns the number of type IDs; IDs are dense in
	// [0, NumTypes()).
	NumTypes() int
	// Total returns |T|: the number of distinct vertex pairs of type id,
	// counting unreachable pairs (Definition 2's denominator).
	Total(id int) int
	// Label returns a human-readable name for the type, e.g. "P{3,4}".
	Label(id int) string
}

// DegreeTypes is the paper's default type system: the type of a pair is
// the unordered pair of the two vertices' ORIGINAL degrees. All degree
// combinations occurring in the graph define types.
type DegreeTypes struct {
	degrees  []int   // original degree per vertex, frozen
	class    []int32 // per vertex: index of its degree in distinct
	distinct []int   // sorted distinct degree values
	nv       []int   // vertex count per distinct degree
	numTypes int
	totals   []int
	labels   string // every type's label, concatenated in ID order
	labelAt  []int  // type id's label is labels[labelAt[id]:labelAt[id+1]]
	order    []int  // type IDs in ascending label order
}

// NewDegreeTypes builds the degree-based type system from the original
// degree vector (paper Section 4: "a pair type T is associated with a
// certain pair of degrees"). The degree vector is copied and frozen.
func NewDegreeTypes(degrees []int) *DegreeTypes {
	d := &DegreeTypes{degrees: append([]int(nil), degrees...)}
	sorted := slices.Clone(degrees)
	slices.Sort(sorted)
	d.distinct = slices.Clone(slices.Compact(sorted))
	k := len(d.distinct)
	d.nv = make([]int, k)
	d.class = make([]int32, len(degrees))
	for v, deg := range degrees {
		i, _ := slices.BinarySearch(d.distinct, deg)
		d.class[v] = int32(i)
		d.nv[i]++
	}
	d.numTypes = k * (k + 1) / 2
	d.totals = make([]int, d.numTypes)
	dec := make([]string, k)
	size := 4 * d.numTypes
	for i, deg := range d.distinct {
		dec[i] = strconv.Itoa(deg)
		size += (k + 1) * len(dec[i]) // each degree appears in k+1 labels
	}
	var b strings.Builder
	b.Grow(size)
	d.labelAt = make([]int, 1, d.numTypes+1)
	for gi := 0; gi < k; gi++ { // IDs run consecutively in this order
		for hi := gi; hi < k; hi++ {
			id := d.pairID(gi, hi)
			if gi == hi {
				d.totals[id] = d.nv[gi] * (d.nv[gi] - 1) / 2
			} else {
				d.totals[id] = d.nv[gi] * d.nv[hi]
			}
			b.WriteString("P{")
			b.WriteString(dec[gi])
			b.WriteByte(',')
			b.WriteString(dec[hi])
			b.WriteByte('}')
			d.labelAt = append(d.labelAt, b.Len())
		}
	}
	d.labels = b.String()
	d.order = d.labelOrder(dec)
	return d
}

// labelOrder returns the type IDs in ascending label order without
// comparing labels, given each distinct degree's decimal form. Those
// hold no ',' or '}', so "P{a,b}" < "P{c,d}" exactly when a+"," <
// c+"," or, for a = c, when b+"}" < d+"}": the order is the distinct
// degrees sorted on the first key, each followed by its partners
// sorted on the second.
func (d *DegreeTypes) labelOrder(dec []string) []int {
	byKey := func(term string) []int {
		idx, keys := make([]int, len(dec)), make([]string, len(dec))
		for i := range idx {
			idx[i], keys[i] = i, dec[i]+term
		}
		slices.SortFunc(idx, func(x, y int) int { return strings.Compare(keys[x], keys[y]) })
		return idx
	}
	partners := byKey("}")
	order := make([]int, 0, d.numTypes)
	for _, gi := range byKey(",") {
		for _, hi := range partners {
			if hi >= gi {
				order = append(order, d.pairID(gi, hi))
			}
		}
	}
	return order
}

// pairID packs an ordered index pair gi <= hi over k distinct degrees
// into a dense ID.
func (d *DegreeTypes) pairID(gi, hi int) int {
	k := len(d.distinct)
	return gi*k - gi*(gi-1)/2 + (hi - gi)
}

// countWithin adds to counts, indexed by type ID, the pairs of s within
// L: a census per ordered degree-class pair, folded into the unordered
// pairs the type IDs stand for.
func (d *DegreeTypes) countWithin(s apsp.Store, counts []int) {
	k := len(d.distinct)
	cnt := make([]int64, k*k)
	apsp.CountWithinByClass(s, d.class, k, cnt)
	for gi := 0; gi < k; gi++ {
		for hi := gi; hi < k; hi++ {
			c := cnt[gi*k+hi]
			if hi != gi {
				c += cnt[hi*k+gi]
			}
			counts[d.pairID(gi, hi)] += int(c)
		}
	}
}

// TypeOf implements TypeAssigner using original degrees: two slice
// reads of the per-vertex degree class, then the dense pair ID.
func (d *DegreeTypes) TypeOf(u, v int) int {
	gi, hi := int(d.class[u]), int(d.class[v])
	if gi > hi {
		gi, hi = hi, gi
	}
	return d.pairID(gi, hi)
}

// NumTypes implements TypeAssigner.
func (d *DegreeTypes) NumTypes() int { return d.numTypes }

// Total implements TypeAssigner.
func (d *DegreeTypes) Total(id int) int { return d.totals[id] }

// Label implements TypeAssigner.
func (d *DegreeTypes) Label(id int) string { return d.labels[d.labelAt[id]:d.labelAt[id+1]] }

// Degrees returns the frozen original degree vector.
func (d *DegreeTypes) Degrees() []int {
	return append([]int(nil), d.degrees...)
}

// DegreePair returns the unordered degree pair a type ID stands for:
// IDs run row by row, so it finds the last row whose first ID is at
// most id.
func (d *DegreeTypes) DegreePair(id int) (g, h int) {
	if id < 0 || id >= d.numTypes {
		panic(fmt.Sprintf("opacity: invalid type id %d", id))
	}
	gi := sort.Search(len(d.distinct), func(i int) bool { return d.pairID(i, i) > id }) - 1
	return d.distinct[gi], d.distinct[gi+id-d.pairID(gi, gi)]
}

// FuncTypes adapts an arbitrary classification function into a
// TypeAssigner, supporting the paper's generality claim that "our privacy
// model definition covers any way of classifying nodes into types".
type FuncTypes struct {
	fn     func(u, v int) int
	totals []int
	labels []string
}

// NewFuncTypes wraps fn over numTypes types with the given totals. labels
// may be nil, in which case types are named "T<i>".
func NewFuncTypes(fn func(u, v int) int, totals []int, labels []string) *FuncTypes {
	if labels == nil {
		labels = make([]string, len(totals))
		for i := range labels {
			labels[i] = fmt.Sprintf("T%d", i)
		}
	}
	if len(labels) != len(totals) {
		panic("opacity: labels/totals length mismatch")
	}
	return &FuncTypes{fn: fn, totals: totals, labels: labels}
}

// TypeOf implements TypeAssigner.
func (f *FuncTypes) TypeOf(u, v int) int { return f.fn(u, v) }

// NumTypes implements TypeAssigner.
func (f *FuncTypes) NumTypes() int { return len(f.totals) }

// Total implements TypeAssigner.
func (f *FuncTypes) Total(id int) int { return f.totals[id] }

// Label implements TypeAssigner.
func (f *FuncTypes) Label(id int) string { return f.labels[id] }
