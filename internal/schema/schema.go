// Package schema defines the attribute metadata used throughout the
// acquisitional query processor: attribute names, discrete domains,
// acquisition costs, and the mapping between raw continuous readings and
// the discretized values the planners operate on.
//
// Following Section 2.1 of Deshpande et al. (ICDE 2005), every attribute
// X_i takes values in {0, ..., K_i - 1} (the paper uses 1-based values; we
// use 0-based throughout). Real-valued attributes are discretized with an
// equal-width Discretizer (Section 4.3).
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a discretized attribute value in [0, K).
type Value = uint16

// MaxDomain is the largest supported domain size K_i. Sensor ADCs are
// 10-bit (1024 values) on the Berkeley motes the paper targets; we allow a
// comfortable margin.
const MaxDomain = 1 << 15

// Attribute describes a single column of the query table.
type Attribute struct {
	// Name identifies the attribute, e.g. "light" or "mote3.temp".
	Name string
	// K is the domain size: discretized values lie in [0, K).
	K int
	// Cost is the acquisition cost C_i in abstract cost units (the paper
	// uses 100 for expensive sensors, 1 for cheap local attributes).
	Cost float64
	// Disc maps raw continuous readings into [0, K). It is nil for
	// natively discrete attributes.
	Disc *Discretizer
	// Board optionally groups attributes that share a sensor board's
	// power-up cost (Section 7 "complex acquisition costs"); 0 means no
	// shared board. Register board costs with Schema.SetBoardCost.
	Board int
}

// Expensive reports whether the attribute's acquisition cost is strictly
// greater than the given threshold. It is a convenience for workload
// generators that must pick "expensive" query attributes.
func (a Attribute) Expensive(threshold float64) bool { return a.Cost > threshold }

func (a Attribute) String() string {
	return fmt.Sprintf("%s(K=%d, C=%g)", a.Name, a.K, a.Cost)
}

// Schema is an ordered collection of attributes. The order defines the
// attribute indexes used by tables, queries, and plans.
type Schema struct {
	attrs      []Attribute
	byName     map[string]int
	boardCosts map[int]float64
}

// New builds a Schema from the given attributes. It panics if an attribute
// is invalid or a name is duplicated: schemas are constructed from code or
// trusted generator output, so these are programming errors.
func New(attrs ...Attribute) *Schema {
	s := &Schema{byName: make(map[string]int, len(attrs))}
	for _, a := range attrs {
		s.MustAdd(a)
	}
	return s
}

// MustAdd appends an attribute, panicking on invalid input.
func (s *Schema) MustAdd(a Attribute) {
	if err := s.Add(a); err != nil {
		panic("schema: " + strings.TrimPrefix(err.Error(), "schema: "))
	}
}

// Add appends an attribute to the schema.
func (s *Schema) Add(a Attribute) error {
	switch {
	case a.Name == "":
		return fmt.Errorf("schema: attribute with empty name")
	case a.K < 2:
		return fmt.Errorf("schema: attribute %q: domain size %d < 2", a.Name, a.K)
	case a.K > MaxDomain:
		return fmt.Errorf("schema: attribute %q: domain size %d exceeds max %d", a.Name, a.K, MaxDomain)
	case a.Cost < 0:
		return fmt.Errorf("schema: attribute %q: negative cost %g", a.Name, a.Cost)
	}
	if _, dup := s.byName[a.Name]; dup {
		return fmt.Errorf("schema: duplicate attribute %q", a.Name)
	}
	s.byName[a.Name] = len(s.attrs)
	s.attrs = append(s.attrs, a)
	return nil
}

// NumAttrs returns the number of attributes n.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute slice.
func (s *Schema) Attrs() []Attribute { return append([]Attribute(nil), s.attrs...) }

// Index returns the index of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustIndex is Index but panics on an unknown name.
func (s *Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("schema: unknown attribute %q", name))
	}
	return i
}

// K returns the domain size of attribute i.
func (s *Schema) K(i int) int { return s.attrs[i].K }

// Cost returns the acquisition cost of attribute i.
func (s *Schema) Cost(i int) float64 { return s.attrs[i].Cost }

// Name returns the name of attribute i.
func (s *Schema) Name(i int) string { return s.attrs[i].Name }

// MaxK returns max_i K_i, the largest domain size in the schema.
func (s *Schema) MaxK() int {
	m := 0
	for _, a := range s.attrs {
		if a.K > m {
			m = a.K
		}
	}
	return m
}

// TotalCost returns the cost of acquiring every attribute once: the cost of
// the trivial plan that observes everything.
func (s *Schema) TotalCost() float64 {
	var c float64
	for _, a := range s.attrs {
		c += a.Cost
	}
	return c
}

// ExpensiveAttrs returns the indexes of attributes with cost above the
// threshold, in schema order.
func (s *Schema) ExpensiveAttrs(threshold float64) []int {
	var out []int
	for i, a := range s.attrs {
		if a.Expensive(threshold) {
			out = append(out, i)
		}
	}
	return out
}

// CheapAttrs returns the indexes of attributes with cost at or below the
// threshold, in schema order.
func (s *Schema) CheapAttrs(threshold float64) []int {
	var out []int
	for i, a := range s.attrs {
		if !a.Expensive(threshold) {
			out = append(out, i)
		}
	}
	return out
}

func (s *Schema) String() string {
	parts := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		parts[i] = a.String()
	}
	return "Schema[" + strings.Join(parts, ", ") + "]"
}

// SortedNames returns attribute names in lexicographic order; useful for
// deterministic output in tools and tests.
func (s *Schema) SortedNames() []string {
	names := make([]string, 0, len(s.attrs))
	for _, a := range s.attrs {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// AttrSet is a set of attribute indexes, one bit each. The planners keep
// "already acquired" sets on their innermost loops, where a map per call
// would dominate the arithmetic.
type AttrSet []uint64

// NewAttrSet returns an empty set able to hold every attribute of the
// schema. It reuses buf when that is large enough, so a caller with a
// small array on its stack allocates nothing for ordinary schemas.
func (s *Schema) NewAttrSet(buf []uint64) AttrSet {
	words := (len(s.attrs) + 63) / 64
	if words > len(buf) {
		return make(AttrSet, words)
	}
	set := AttrSet(buf[:words])
	clear(set)
	return set
}

// Has reports whether attribute i is in the set.
func (a AttrSet) Has(i int) bool { return a[i>>6]&(1<<uint(i&63)) != 0 }

// Add puts attribute i in the set.
func (a AttrSet) Add(i int) { a[i>>6] |= 1 << uint(i&63) }
