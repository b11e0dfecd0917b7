// Package opacity implements the paper's privacy model: vertex-pair
// types (Definition 1), the per-type L-opacity ratio (Definition 2), and
// the graph-level maximum opacity (Definition 3, computed by the paper's
// Algorithm 1), together with an incremental tracker that keeps per-type
// counts current across edge mutations without full recomputation.
package opacity

import (
	"cmp"
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
// (by default, original degrees). ClassTypes, which types a pair by its
// vertices' classes, is counted by NewTracker straight off the store's
// rows and labelled by NewTypeReport in one buffer; any other assigner
// is asked TypeOf for each pair within L and Label for each row.
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

// ClassTypes types a vertex pair by the unordered pair of its two
// vertices' classes (paper Definition 1): the paper's degree classes
// (NewDegreeTypes) or categorical vertex labels (NewLabelTypes). Every
// pair of classes defines a type, so k classes give k(k+1)/2 types. A
// ClassTypes is never written after construction, so goroutines may
// share it.
type ClassTypes struct {
	class  []int32  // per vertex: the index of its class
	names  []string // rendered class names in class order; none holds ',' or '}'
	prefix string   // written before each type's "{a,b}" label
	totals []int    // |T| per type, from the per-class vertex counts
}

// NewDegreeTypes builds the paper's default type system from the
// ORIGINAL degree vector (Section 4: "a pair type T is associated with
// a certain pair of degrees"). A vertex's class is the rank of its
// degree among the distinct degrees, named by its decimal form; a
// type's label is "P{a,b}" with a <= b.
func NewDegreeTypes(degrees []int) *ClassTypes {
	class, distinct := rank(degrees)
	names := make([]string, len(distinct))
	for i, deg := range distinct {
		names[i] = strconv.Itoa(deg)
	}
	return newClassTypes(class, names, "P")
}

// NewLabelTypes types each vertex pair by its unordered pair of
// categorical vertex labels (community, department, role ...) — the
// node-labeled setting of Zhou & Pei (ICDE 2008) cast into Definition
// 1. A label's rendered name escapes '%', ',', '{' and '}' as %25,
// %2C, %7B and %7D, so a type's label "{a,b}" (a <= b) names exactly
// one pair of labels; a vertex's class is the rank of its rendered
// name among the distinct names. The census comes from the label
// counts, not from a scan of all pairs.
func NewLabelTypes(labels []string) *ClassTypes {
	rendered := make([]string, len(labels))
	for v, name := range labels {
		rendered[v] = nameEscaper.Replace(name)
	}
	class, names := rank(rendered)
	return newClassTypes(class, names, "")
}

var nameEscaper = strings.NewReplacer("%", "%25", ",", "%2C", "{", "%7B", "}", "%7D")

// rank returns every key's rank among the distinct keys, and the
// distinct keys in ascending order.
func rank[T cmp.Ordered](keys []T) ([]int32, []T) {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	distinct := slices.Clone(slices.Compact(sorted))
	class := make([]int32, len(keys))
	for v, key := range keys {
		i, _ := slices.BinarySearch(distinct, key)
		class[v] = int32(i)
	}
	return class, distinct
}

// newClassTypes derives the type populations from the class sizes: a
// class of c vertices gives its own type c(c-1)/2 pairs, and two
// classes of c and d vertices give theirs c*d.
func newClassTypes(class []int32, names []string, prefix string) *ClassTypes {
	k := len(names)
	nv := make([]int, k)
	for _, i := range class {
		nv[i]++
	}
	c := &ClassTypes{class: class, names: names, prefix: prefix, totals: make([]int, k*(k+1)/2)}
	for gi := range k {
		for hi := gi; hi < k; hi++ {
			if gi == hi {
				c.totals[c.pairID(gi, hi)] = nv[gi] * (nv[gi] - 1) / 2
			} else {
				c.totals[c.pairID(gi, hi)] = nv[gi] * nv[hi]
			}
		}
	}
	return c
}

// pairID packs an ordered class pair gi <= hi into a dense ID; IDs run
// consecutively through the pairs in (gi, hi) order.
func (c *ClassTypes) pairID(gi, hi int) int {
	return gi*len(c.names) - gi*(gi-1)/2 + (hi - gi)
}

// classPair returns the class pair gi <= hi a type ID stands for: IDs
// run row by row, so gi is the last row whose first ID is at most id.
func (c *ClassTypes) classPair(id int) (gi, hi int) {
	if id < 0 || id >= len(c.totals) {
		panic(fmt.Sprintf("opacity: invalid type id %d", id))
	}
	gi = sort.Search(len(c.names), func(i int) bool { return c.pairID(i, i) > id }) - 1
	return gi, gi + id - c.pairID(gi, gi)
}

// countWithin adds to counts, indexed by type ID, the pairs of s within
// L: a census per ordered class pair, folded into the unordered pairs
// the type IDs stand for.
func (c *ClassTypes) countWithin(s apsp.Store, counts []int) {
	k := len(c.names)
	cnt := make([]int64, k*k)
	apsp.CountWithinByClass(s, c.class, k, cnt)
	for gi := range k {
		for hi := gi; hi < k; hi++ {
			n := cnt[gi*k+hi]
			if hi != gi {
				n += cnt[hi*k+gi]
			}
			counts[c.pairID(gi, hi)] += int(n)
		}
	}
}

// rows calls fn with every type ID and its label in ascending label
// order. It writes every label into one buffer, and derives the order
// without comparing labels: no class name holds ',' or '}', so
// "{a,b}" < "{c,d}" exactly when a+"," < c+"," or, for a = c, when
// b+"}" < d+"}". The order is the classes sorted on the first key,
// each followed by its partners (the classes from it on) sorted on the
// second.
func (c *ClassTypes) rows(fn func(id int, label string)) {
	byKey := func(term string) []int {
		idx, keys := make([]int, len(c.names)), make([]string, len(c.names))
		for i := range idx {
			idx[i], keys[i] = i, c.names[i]+term
		}
		slices.SortFunc(idx, func(x, y int) int { return strings.Compare(keys[x], keys[y]) })
		return idx
	}
	first, partners := byKey(","), byKey("}")
	each := func(emit func(gi, hi int)) {
		for _, gi := range first {
			for _, hi := range partners {
				if hi >= gi {
					emit(gi, hi)
				}
			}
		}
	}
	size := len(c.totals) * (len(c.prefix) + 3)
	for _, name := range c.names {
		size += (len(c.names) + 1) * len(name) // each name appears in k+1 labels
	}
	var b strings.Builder
	b.Grow(size)
	each(func(gi, hi int) {
		b.WriteString(c.prefix)
		b.WriteByte('{')
		b.WriteString(c.names[gi])
		b.WriteByte(',')
		b.WriteString(c.names[hi])
		b.WriteByte('}')
	})
	labels, at := b.String(), 0
	each(func(gi, hi int) {
		end := at + len(c.prefix) + 3 + len(c.names[gi]) + len(c.names[hi])
		fn(c.pairID(gi, hi), labels[at:end])
		at = end
	})
}

// TypeOf implements TypeAssigner: two slice reads of the per-vertex
// class, then the dense pair ID.
func (c *ClassTypes) TypeOf(u, v int) int {
	gi, hi := int(c.class[u]), int(c.class[v])
	if gi > hi {
		gi, hi = hi, gi
	}
	return c.pairID(gi, hi)
}

// NumTypes implements TypeAssigner.
func (c *ClassTypes) NumTypes() int { return len(c.totals) }

// Total implements TypeAssigner.
func (c *ClassTypes) Total(id int) int { return c.totals[id] }

// Label implements TypeAssigner: the prefix, then "{a,b}" over the two
// class names in class order. It builds the string on each call; a
// report writes every label at once (rows).
func (c *ClassTypes) Label(id int) string {
	gi, hi := c.classPair(id)
	return c.prefix + "{" + c.names[gi] + "," + c.names[hi] + "}"
}

// DegreePair returns the unordered degree pair, smaller first, that a
// type ID of NewDegreeTypes stands for, read back from the two class
// names.
func (c *ClassTypes) DegreePair(id int) (g, h int) {
	gi, hi := c.classPair(id)
	g, errG := strconv.Atoi(c.names[gi])
	h, errH := strconv.Atoi(c.names[hi])
	if err := cmp.Or(errG, errH); err != nil {
		panic(fmt.Sprintf("opacity: type %d is not a degree pair: %v", id, err))
	}
	return g, h
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
