package model

import (
	"math"
	"sort"
	"sync"

	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/table"
)

// BN is a general bounded-in-degree Bayesian network over the schema's
// attributes — the lifting of ChowLiu from trees to DAGs that ROADMAP
// item 1 and Halford et al. (arXiv:1907.06295) call for. Structure is
// learned greedily under a BIC/MDL score, CPTs are Laplace-smoothed, and
// the planners' conditional-probability queries are answered by exact
// variable elimination over the learned DAG, compiled at fit into one
// program per kept attribute (see compile). A Chow-Liu tree is the
// special case where every node has at most one parent; allowing two (the
// default) captures exactly the multi-parent interactions a tree cannot
// represent, such as x2 = x0 XOR x1 where x2 is pairwise independent of
// each input.
type BN struct {
	s       *schema.Schema
	rows    float64
	parents [][]int // parents[v], ascending; empty for roots
	// cpt[v] is P(X_v | parents) over the sorted scope parents ∪ {v},
	// row-major with the last variable fastest; cptX[v][i] is X_v's value
	// in cell i.
	cpt  [][]float64
	cptX [][]int32

	progs   []veProgram // progs[keep+1], see compile
	scratch sync.Pool   // *[]float64 sized for every program
}

const (
	// defaultMaxParents bounds the in-degree of the structure search.
	// Two parents keep every CPT and every elimination clique small while
	// already expressing the pairwise-irreducible dependencies that
	// motivate moving beyond trees.
	defaultMaxParents = 2
	// maxFamilyCells caps a node's CPT size (parent configurations times
	// the node's own cardinality) so high-cardinality attributes cannot
	// blow up fitting time or memory.
	maxFamilyCells = 1 << 16
	// minScoreGain is the threshold a structure move must clear; it
	// absorbs float noise so fitting terminates deterministically.
	minScoreGain = 1e-9
)

// FitBN learns a bounded-in-degree Bayesian network from the table with
// additive smoothing alpha (clamped to 0 if negative) and at most
// maxParents parents per node (0 selects the default). Fitting is
// deterministic: candidate moves are scanned in index order and score
// ties keep the first candidate. An empty table yields the uniform model;
// use Fit for validated fitting with typed errors.
func FitBN(tbl *table.Table, alpha float64, maxParents int) *BN {
	if alpha < 0 {
		alpha = 0
	}
	if maxParents <= 0 {
		maxParents = defaultMaxParents
	}
	s := tbl.Schema()
	n := s.NumAttrs()
	m := &BN{s: s, rows: float64(tbl.NumRows())}

	parents := make([][]int, n)
	children := make([][]int, n)
	scores := make([]float64, n)
	for v := 0; v < n; v++ {
		scores[v] = familyScore(tbl, v, nil)
	}

	// reaches reports whether a directed path from -> to exists.
	var reaches func(from, to int) bool
	reaches = func(from, to int) bool {
		if from == to {
			return true
		}
		for _, c := range children[from] {
			if reaches(c, to) {
				return true
			}
		}
		return false
	}
	okParent := func(v, u int) bool {
		if u == v || containsInt(parents[v], u) {
			return false
		}
		// Adding u -> v creates a cycle iff v already reaches u.
		return !reaches(v, u)
	}
	apply := func(v int, add []int, gain float64) {
		parents[v] = append(append([]int(nil), parents[v]...), add...)
		sort.Ints(parents[v])
		for _, u := range add {
			children[u] = append(children[u], v)
		}
		scores[v] += gain
	}

	// Greedy hill climbing: repeatedly take the best single-edge addition
	// by BIC gain. When no single edge helps, try adding a parent *pair*
	// before giving up — parity-style dependencies (XOR) have zero gain
	// for every individual edge yet large gain for the pair, so a purely
	// single-edge search can never discover them.
	for {
		bestGain, bestV := minScoreGain, -1
		var bestAdd []int
		for v := 0; v < n; v++ {
			if len(parents[v]) >= maxParents {
				continue
			}
			for u := 0; u < n; u++ {
				if !okParent(v, u) {
					continue
				}
				ps := sortedWith(parents[v], u)
				if familyCells(s, v, ps) > maxFamilyCells {
					continue
				}
				if g := familyScore(tbl, v, ps) - scores[v]; g > bestGain {
					bestGain, bestV, bestAdd = g, v, []int{u}
				}
			}
		}
		if bestV < 0 {
			for v := 0; v < n; v++ {
				if len(parents[v])+2 > maxParents {
					continue
				}
				for u := 0; u < n; u++ {
					if !okParent(v, u) {
						continue
					}
					for w := u + 1; w < n; w++ {
						if !okParent(v, w) {
							continue
						}
						ps := sortedWith(sortedWith(parents[v], u), w)
						if familyCells(s, v, ps) > maxFamilyCells {
							continue
						}
						if g := familyScore(tbl, v, ps) - scores[v]; g > bestGain {
							bestGain, bestV, bestAdd = g, v, []int{u, w}
						}
					}
				}
			}
		}
		if bestV < 0 {
			break
		}
		apply(bestV, bestAdd, bestGain)
	}
	m.parents = parents

	// Smoothed CPTs over (parents ascending, v last), until compile
	// re-lays them. A parent configuration with no support (and alpha=0)
	// gets the uniform row instead of 0/0 = NaN.
	m.cpt = make([][]float64, n)
	for v := 0; v < n; v++ {
		kv := s.K(v)
		cfgs := parentConfigs(s, parents[v])
		counts := make([]float64, cfgs*kv)
		colV := tbl.Col(v)
		pcols := make([][]schema.Value, len(parents[v]))
		for i, p := range parents[v] {
			pcols[i] = tbl.Col(p)
		}
		for r := range colV {
			cfg := 0
			for i, p := range parents[v] {
				cfg = cfg*s.K(p) + int(pcols[i][r])
			}
			counts[cfg*kv+int(colV[r])]++
		}
		for cfg := 0; cfg < cfgs; cfg++ {
			row := counts[cfg*kv : (cfg+1)*kv]
			var tot float64
			for _, c := range row {
				tot += c
			}
			z := tot + alpha*float64(kv)
			if z <= 0 {
				for x := range row {
					row[x] = 1 / float64(kv)
				}
				continue
			}
			for x := range row {
				row[x] = (row[x] + alpha) / z
			}
		}
		m.cpt[v] = counts
	}
	m.compile()
	return m
}

// familyScore is the BIC/MDL score of node v with the given parent set:
// maximum-likelihood log-likelihood of v's column given the parent
// columns, minus (ln N / 2) per free parameter. (Smoothing applies to the
// CPTs, not the structure score.) Decomposability over families is what
// makes the greedy search cheap.
func familyScore(tbl *table.Table, v int, ps []int) float64 {
	s := tbl.Schema()
	kv := s.K(v)
	cfgs := parentConfigs(s, ps)
	counts := make([]float64, cfgs*kv)
	parentTot := make([]float64, cfgs)
	colV := tbl.Col(v)
	pcols := make([][]schema.Value, len(ps))
	for i, p := range ps {
		pcols[i] = tbl.Col(p)
	}
	for r := range colV {
		cfg := 0
		for i, p := range ps {
			cfg = cfg*s.K(p) + int(pcols[i][r])
		}
		counts[cfg*kv+int(colV[r])]++
		parentTot[cfg]++
	}
	var ll float64
	for cfg := 0; cfg < cfgs; cfg++ {
		for x := 0; x < kv; x++ {
			c := counts[cfg*kv+x]
			if c > 0 {
				ll += c * math.Log(c/parentTot[cfg])
			}
		}
	}
	n := float64(tbl.NumRows())
	if n < 1 {
		n = 1
	}
	penalty := 0.5 * math.Log(n) * float64((kv-1)*cfgs)
	return ll - penalty
}

func parentConfigs(s *schema.Schema, ps []int) int {
	cfgs := 1
	for _, p := range ps {
		cfgs *= s.K(p)
	}
	return cfgs
}

func familyCells(s *schema.Schema, v int, ps []int) int {
	return parentConfigs(s, ps) * s.K(v)
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func sortedWith(xs []int, x int) []int {
	out := append(append([]int(nil), xs...), x)
	sort.Ints(out)
	return out
}

// Parents returns attribute v's learned parent set (ascending); useful
// for inspecting the structure in tests and experiments.
func (m *BN) Parents(v int) []int {
	return append([]int(nil), m.parents[v]...)
}

// NumEdges returns the number of edges in the learned DAG.
func (m *BN) NumEdges() int {
	var e int
	for _, ps := range m.parents {
		e += len(ps)
	}
	return e
}

// Schema implements stats.Dist.
func (m *BN) Schema() *schema.Schema { return m.s }

// Root implements stats.Dist.
func (m *BN) Root() stats.Cond {
	masks := make([][]float64, m.s.NumAttrs())
	for a := range masks {
		mask := make([]float64, m.s.K(a))
		for v := range mask {
			mask[v] = 1
		}
		masks[a] = mask
	}
	return newBNCond(m, masks)
}

// veProgram is variable elimination compiled for one kept attribute.
// The elimination order and every factor's shape depend only on the
// structure, so they are fixed at fit; a run folds the evidence masks
// into the CPT factors and executes the steps over offsets into a scratch
// buffer, where the CPT factors lie first, in attribute order.
type veProgram struct {
	steps []veStep
	final []veFinal // the factors left after elimination, in list order
}

// veStep is one instruction of a program. A multiply (k == 0) forms
// out[i] = buf[a+ia[i]] * buf[b+ib[i]] for every cell i of its output; a
// nil ia reads buf[a+i], the factor at a already spanning the output. A
// sum-out views its input at a as [outer][k][inner], the eliminated
// variable in the middle, and sums the inputs of each output cell from
// zero in ascending input order.
type veStep struct {
	a, b, out       int
	ia, ib          []int32
	outer, k, inner int
}

// veFinal is a factor over {keep} or, when scalar, over no variable.
type veFinal struct {
	off    int
	scalar bool
}

// cellIndex returns, for every cell of a factor over scope (row-major,
// last variable fastest), the index of the cell with the same assignment
// in a factor laid out row-major over vars, a subset of scope in any
// order.
func (m *BN) cellIndex(scope, vars []int) []int32 {
	stride := make([]int, len(scope))
	st := 1
	for i := len(vars) - 1; i >= 0; i-- {
		for j, w := range scope {
			if w == vars[i] {
				stride[j] = st
			}
		}
		st *= m.s.K(vars[i])
	}
	out := make([]int32, m.cells(scope))
	assign := make([]int, len(scope))
	idx := 0
	for i := range out {
		out[i] = int32(idx)
		// Odometer increment, last variable fastest.
		for d := len(scope) - 1; d >= 0; d-- {
			assign[d]++
			idx += stride[d]
			if assign[d] < m.s.K(scope[d]) {
				break
			}
			idx -= assign[d] * stride[d]
			assign[d] = 0
		}
	}
	return out
}

func (m *BN) cells(vars []int) int {
	size := 1
	for _, w := range vars {
		size *= m.s.K(w)
	}
	return size
}

func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// compile re-lays each CPT over its sorted scope and fixes one
// elimination program per keep in {-1, 0, ..., n-1}. The order greedily
// eliminates the variable whose elimination produces the smallest
// resulting factor, breaking ties by smallest attribute index —
// deterministic and effective on the small, sparse graphs bounded
// in-degree produces. The factors containing it are multiplied left to
// right in list order, and the sum-out result joins the end of the list.
func (m *BN) compile() {
	n := m.s.NumAttrs()
	type slot struct {
		vars []int
		off  int
	}
	cpts := make([]slot, n)
	m.cptX = make([][]int32, n)
	off := 0
	for v := 0; v < n; v++ {
		scope := sortedWith(m.parents[v], v)
		fit := m.cellIndex(scope, append(append([]int(nil), m.parents[v]...), v))
		cpt := make([]float64, len(fit))
		for i, j := range fit {
			cpt[i] = m.cpt[v][j]
		}
		m.cpt[v], m.cptX[v] = cpt, m.cellIndex(scope, []int{v})
		cpts[v] = slot{scope, off}
		off += len(cpt)
	}
	scratch := off
	m.progs = make([]veProgram, n+1)
	for keep := -1; keep < n; keep++ {
		p := &m.progs[keep+1]
		next := off
		newSlot := func(vars []int) slot {
			sl := slot{vars, next}
			next += m.cells(vars)
			return sl
		}
		factors := append([]slot(nil), cpts...)
		remaining := make([]bool, n)
		for v := 0; v < n; v++ {
			remaining[v] = v != keep
		}
		for {
			bestV, bestSize := -1, 0
			for v := 0; v < n; v++ {
				if !remaining[v] {
					continue
				}
				scope := []int{}
				for _, f := range factors {
					if containsInt(f.vars, v) {
						scope = unionSorted(scope, f.vars)
					}
				}
				if size := m.cells(scope) / m.s.K(v); bestV < 0 || size < bestSize {
					bestV, bestSize = v, size
				}
			}
			if bestV < 0 {
				break
			}
			remaining[bestV] = false
			var prod *slot
			kept := factors[:0]
			for _, f := range factors {
				switch {
				case !containsInt(f.vars, bestV):
					kept = append(kept, f)
				case prod == nil:
					prod = &slot{f.vars, f.off}
				default:
					vars := unionSorted(prod.vars, f.vars)
					out := newSlot(vars)
					// Products commute bit for bit, so a factor already
					// over the whole output goes first and needs no index.
					a, b := *prod, f
					if len(b.vars) == len(vars) {
						a, b = b, a
					}
					st := veStep{a: a.off, b: b.off, out: out.off, ib: m.cellIndex(vars, b.vars)}
					if len(a.vars) != len(vars) {
						st.ia = m.cellIndex(vars, a.vars)
					}
					p.steps = append(p.steps, st)
					prod = &out
				}
			}
			at := 0
			for prod.vars[at] != bestV {
				at++
			}
			out := newSlot(append(append([]int(nil), prod.vars[:at]...), prod.vars[at+1:]...))
			p.steps = append(p.steps, veStep{a: prod.off, out: out.off,
				outer: m.cells(prod.vars[:at]), k: m.s.K(bestV), inner: m.cells(prod.vars[at+1:])})
			factors = append(kept, out)
		}
		for _, f := range factors {
			p.final = append(p.final, veFinal{f.off, len(f.vars) == 0})
		}
		scratch = max(scratch, next)
	}
	m.scratch.New = func() any {
		buf := make([]float64, scratch)
		return &buf
	}
}

// ve runs the program keeping attribute keep (keep < 0 eliminates
// everything) under the per-attribute evidence masks. It returns the
// unnormalized posterior over keep (nil when keep < 0) and the total
// evidence mass. The elimination order and the product chains depend
// only on the structure and keep, never on the 0/1 masks, so every cell
// sees the operands, in the order, that eliminating over factors built
// for these masks would.
func (m *BN) ve(masks [][]float64, keep int) ([]float64, float64) {
	bp := m.scratch.Get().(*[]float64)
	buf := *bp
	off := 0
	for v, cpt := range m.cpt {
		// Fold v's evidence mask directly into its CPT factor.
		mask, x, out := masks[v], m.cptX[v], buf[off:off+len(cpt)]
		off += len(cpt)
		if allOnes(mask) {
			copy(out, cpt) // p * 1 == p
			continue
		}
		for i, p := range cpt {
			out[i] = p * mask[x[i]]
		}
	}
	p := &m.progs[keep+1]
	for i := range p.steps {
		st := &p.steps[i]
		if st.k == 0 {
			out, a, b := buf[st.out:st.out+len(st.ib)], buf[st.a:], buf[st.b:]
			if st.ia == nil {
				for j := range out {
					out[j] = a[j] * b[st.ib[j]]
				}
				continue
			}
			for j := range out {
				out[j] = a[st.ia[j]] * b[st.ib[j]]
			}
			continue
		}
		in, out := buf[st.a:], buf[st.out:st.out+st.outer*st.inner]
		if st.inner == 1 {
			for h := range out {
				sum := 0.0
				for _, v := range in[h*st.k:][:st.k] {
					sum += v
				}
				out[h] = sum
			}
			continue
		}
		clear(out)
		for h := 0; h < st.outer; h++ {
			o := out[h*st.inner : (h+1)*st.inner]
			for x := 0; x < st.k; x++ {
				for l, v := range in[(h*st.k+x)*st.inner:][:st.inner] {
					o[l] += v
				}
			}
		}
	}

	// Multiply what remains: factors over {keep} and constants.
	var hist []float64
	if keep >= 0 {
		hist = make([]float64, m.s.K(keep))
		for i := range hist {
			hist[i] = 1
		}
	}
	z := 1.0
	for _, f := range p.final {
		if f.scalar {
			z *= buf[f.off]
			continue
		}
		for i := range hist {
			hist[i] *= buf[f.off+i]
		}
	}
	m.scratch.Put(bp)
	if keep < 0 {
		return nil, z
	}
	var tot float64
	for i := range hist {
		hist[i] *= z
		tot += hist[i]
	}
	return hist, tot
}

// allOnes reports whether an evidence mask, whose entries are 0 or 1,
// excludes no value.
func allOnes(mask []float64) bool {
	for _, w := range mask {
		if w < 1 {
			return false
		}
	}
	return true
}

func newBNCond(m *BN, masks [][]float64) *bnCond {
	return &bnCond{m: m, masks: masks, hists: make([]bnHist, m.s.NumAttrs())}
}

// bnHist is one attribute's lazily published posterior marginal; once
// makes the publication safe for concurrent planner searches sharing the
// conditioning context.
type bnHist struct {
	once sync.Once
	h    []float64
}

// bnCond conditions the network: evidence is a per-attribute 0/1 mask;
// posteriors and the evidence mass are computed by variable elimination
// on first use and published through sync.Once.
type bnCond struct {
	m     *BN
	masks [][]float64

	zOnce sync.Once
	z     float64 // P(evidence)

	hists []bnHist
}

func (c *bnCond) evidence() float64 {
	c.zOnce.Do(func() {
		_, c.z = c.m.ve(c.masks, -1)
		if c.z < 0 {
			c.z = 0
		}
	})
	return c.z
}

func (c *bnCond) Weight() float64 { return c.m.rows * c.evidence() }

func (c *bnCond) Hist(attr int) []float64 {
	st := &c.hists[attr]
	st.once.Do(func() {
		h, z := c.m.ve(c.masks, attr)
		st.h = normalizeOrUniform(h, z)
	})
	return st.h
}

func (c *bnCond) ProbRange(attr int, r query.Range) float64 {
	h := c.Hist(attr)
	var p float64
	for v := int(r.Lo); v <= int(r.Hi) && v < len(h); v++ {
		p += h[v]
	}
	return clampProb(p)
}

func (c *bnCond) ProbPred(p query.Pred) float64 {
	in := c.ProbRange(p.Attr, p.R)
	if p.Negated {
		return clampProb(1 - in)
	}
	return in
}

func (c *bnCond) RestrictRange(attr int, r query.Range) stats.Cond {
	return c.restrict(attr, func(v int) bool { return r.Contains(schema.Value(v)) })
}

func (c *bnCond) RestrictPred(p query.Pred, val bool) stats.Cond {
	return c.restrict(p.Attr, func(v int) bool { return p.Eval(schema.Value(v)) == val })
}

func (c *bnCond) restrict(attr int, keep func(v int) bool) stats.Cond {
	masks := make([][]float64, len(c.masks))
	copy(masks, c.masks)
	newMask := make([]float64, len(c.masks[attr]))
	for v := range newMask {
		if keep(v) {
			newMask[v] = c.masks[attr][v]
		}
	}
	masks[attr] = newMask
	return newBNCond(c.m, masks)
}
