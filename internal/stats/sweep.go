package stats

import (
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/table"
)

// SplitSweep ranks every candidate split of one empirical context — one
// leaf of a conditional plan — from integer counts, without deriving a
// child context per candidate. It is the counting form of Section 5.1's
// index: the planners ask a child context only for the joint over the
// open predicates' satisfaction patterns and for histograms of the
// predicates' attributes among rows that satisfy some of them, and both
// are sums over the child's rows, so they can be kept as running sums
// while the leaf's rows are walked in the order of the split attribute
// (the incremental rule of Equation (7), applied to whole tables).
//
// Once per leaf, every row gets the satisfaction mask of the open
// predicates (bit i set iff preds[i] holds), and the leaf totals are
// tallied into one cell per distinct mask:
//
//	cell[0]            rows with this mask           (the joint)
//	cell[off[i]+v]     rows with this mask and X_attr(preds[i]) = v
//
// A cell is therefore 1 + sum_i K_attr(preds[i]) counts, and a table is
// one cell per mask that occurs among the leaf's rows — at most 2^m, and
// never more than the leaf has rows. Attr then walks the rows once in the
// order of one attribute's value: at each candidate x the running table
// holds the counts of the low child (X < x), and total minus running the
// counts of the high child.
//
// Every probability a SweepSide reports is derived from these counts by
// the arithmetic empCond uses on a materialized child (count/n per value,
// left-to-right prefix sums, clamped differences, the uniform fallback at
// n = 0). Counts do not depend on the order rows are visited in, so the
// floats are bit-identical to RestrictRange followed by today's methods;
// stats' sweep tests assert exactly that.
//
// A SplitSweep is immutable once built and safe for concurrent Attr
// calls, each with a SweepBuf of its own: the running table and the two
// SweepSides live there.
type SplitSweep struct {
	tbl    *table.Table
	rows   []int32      // the leaf's selection vector, shared with its Cond
	preds  []query.Pred // bit i of a mask is preds[i]
	cols   [][]uint16   // cols[i] is the column of preds[i]'s attribute
	off    []int        // off[i] is where preds[i]'s histogram starts in a cell
	stride int          // counts per cell
	maxK   int          // largest domain among the predicates' attributes
	cell   []int32      // per row position: the index of its mask's cell
	masks  []uint32     // per cell: the mask, in order of first occurrence
	total  []int32      // the leaf's table: len(masks) cells
}

// NewSplitSweep analyses an empirical context for sweeping under the given
// open predicates. It returns nil when the context is not an empirical
// selection vector (model backends and weighted cells answer through
// their Cond) or when the predicates outnumber MaxJointPreds, the widest
// mask PredMaskJoint represents; callers then derive child contexts.
func NewSplitSweep(c Cond, preds []query.Pred) *SplitSweep {
	ec, ok := c.(*empCond)
	if !ok || len(preds) > MaxJointPreds {
		return nil
	}
	s := ec.tbl.Schema()
	sw := &SplitSweep{
		tbl: ec.tbl, rows: ec.rows, preds: preds,
		cols: make([][]uint16, len(preds)), off: make([]int, len(preds)),
		stride: 1, cell: make([]int32, len(ec.rows)),
	}
	for i, p := range preds {
		sw.cols[i] = ec.tbl.Col(p.Attr)
		sw.off[i] = sw.stride
		sw.stride += s.K(p.Attr)
		sw.maxK = max(sw.maxK, s.K(p.Attr))
	}
	// Masks are numbered as they first occur. A direct-index table serves
	// while it is no larger than the selection vector itself; past that
	// (many predicates over few rows) a map holds the masks that occur.
	var direct []int32
	var sparse map[uint32]int32
	if n := 1 << uint(len(preds)); n <= max(len(ec.rows), 1) {
		direct = make([]int32, n)
	} else {
		sparse = make(map[uint32]int32)
	}
	for pos, row := range ec.rows {
		var mask uint32
		for i, p := range preds {
			if p.Eval(sw.cols[i][row]) {
				mask |= 1 << uint(i)
			}
		}
		var id int32
		if direct != nil {
			if id = direct[mask] - 1; id < 0 {
				id = int32(len(sw.masks))
				direct[mask] = id + 1
				sw.masks = append(sw.masks, mask)
			}
		} else {
			var seen bool
			if id, seen = sparse[mask]; !seen {
				id = int32(len(sw.masks))
				sparse[mask] = id
				sw.masks = append(sw.masks, mask)
			}
		}
		sw.cell[pos] = id
	}
	sw.total = make([]int32, len(sw.masks)*sw.stride)
	for pos := range ec.rows {
		sw.tally(sw.total, pos)
	}
	return sw
}

// tally adds the row at a position of the selection vector to a table.
func (sw *SplitSweep) tally(tab []int32, pos int) {
	cell := tab[int(sw.cell[pos])*sw.stride:]
	cell[0]++
	row := sw.rows[pos]
	for i, col := range sw.cols {
		cell[sw.off[i]+int(col[row])]++
	}
}

// Attr sweeps the candidate split points xs of one attribute, which must
// be ascending and lie in [1, K_attr-1]. For each it calls visit with the
// candidate's index and the statistics of the two children the split
// T(X_attr >= xs[i]) would create: lo is the context restricted to
// X_attr < xs[i], hi to X_attr >= xs[i]. The context must already be
// restricted to the range being split, as a plan leaf's is, so the two
// sides are exactly RestrictRange(attr, [r.Lo, x-1]) and
// RestrictRange(attr, [x, r.Hi]). Both sides are valid only during the
// call and arrive Reset.
//
// The rows are counting-sorted by the attribute's value and walked once,
// so the whole sweep costs three passes over the leaf however many
// candidates there are. buf, which may be nil, lends the call its buffers.
func (sw *SplitSweep) Attr(attr int, xs []schema.Value, buf *SweepBuf, visit func(i int, lo, hi *SweepSide)) {
	if buf == nil {
		buf = new(SweepBuf)
	}
	col := sw.tbl.Col(attr)
	// end[v] counts the rows with value v, then becomes where the rows
	// with values up to v end in sorted order.
	end := zeroed(&buf.end, sw.tbl.Schema().K(attr))
	for _, row := range sw.rows {
		end[col[row]]++
	}
	var sum int32
	for v, n := range end {
		end[v] = sum
		sum += n
	}
	order := zeroed(&buf.order, len(sw.rows))
	for pos, row := range sw.rows {
		v := col[row]
		order[end[v]] = int32(pos)
		end[v]++
	}

	run := zeroed(&buf.run, len(sw.total))
	acc := zeroed(&buf.acc, 2*sw.maxK)
	lo, hi := &buf.lo, &buf.hi
	*lo = SweepSide{sw: sw, plus: run, acc: acc[:sw.maxK]}
	*hi = SweepSide{sw: sw, plus: sw.total, minus: run, acc: acc[sw.maxK:]}
	done := 0
	for i, x := range xs {
		upto := int(end[x-1])
		for _, pos := range order[done:upto] {
			sw.tally(run, int(pos))
		}
		done = upto
		lo.Reset()
		hi.Reset()
		visit(i, lo, hi)
	}
}

// SweepBuf holds the buffers of an Attr call, so that consecutive calls —
// on any sweeps — given the same SweepBuf share them. The zero value is
// ready; a SweepBuf serves one call at a time.
type SweepBuf struct {
	end, order, run, acc []int32
	lo, hi               SweepSide
}

// zeroed resizes *b to n zeros, reusing its array when large enough.
func zeroed(b *[]int32, n int) []int32 {
	if cap(*b) < n {
		*b = make([]int32, n)
	} else {
		*b = (*b)[:n]
		clear(*b)
	}
	return *b
}

// SweepSide is one child of a candidate split, as counts: the cursor
// sequential planning reads (ProbPred, AssumeTrue, Reset, MaskJoint), with
// the meaning CondChain gives them on the materialized child. Its counts
// are plus minus minus, cell for cell, so the high side needs no table of
// its own.
type SweepSide struct {
	sw          *SplitSweep
	plus, minus []int32
	given       uint32  // predicates assumed satisfied so far
	acc         []int32 // scratch: one attribute's histogram
}

// bit returns the mask bit of a predicate the sweep was built over.
func (sw *SplitSweep) bit(p query.Pred) int {
	for i, q := range sw.preds {
		if q == p {
			return i
		}
	}
	panic("stats: SplitSweep: predicate is not among those the sweep was built over")
}

// Reset drops every AssumeTrue.
func (sd *SweepSide) Reset() { sd.given = 0 }

// AssumeTrue conditions everything asked afterwards on p being satisfied:
// RestrictPred(p, true) on the materialized child.
func (sd *SweepSide) AssumeTrue(p query.Pred) { sd.given |= 1 << uint(sd.sw.bit(p)) }

// count returns one count of the side's table.
func (sd *SweepSide) count(i int) int32 {
	if sd.minus == nil {
		return sd.plus[i]
	}
	return sd.plus[i] - sd.minus[i]
}

// histCounts tallies, into the side's scratch, the histogram of the
// attribute of the sweep's i-th predicate over the side's rows that
// satisfy every assumed predicate, and returns it with the number of
// those rows.
func (sd *SweepSide) histCounts(i int) (hist []int32, n int) {
	sw := sd.sw
	off, k := sw.off[i], sw.tbl.Schema().K(sw.preds[i].Attr)
	hist = sd.acc[:k]
	clear(hist)
	for id, mask := range sw.masks {
		if mask&sd.given != sd.given {
			continue
		}
		base := id * sw.stride
		n += int(sd.count(base))
		for v, c := range sd.plus[base+off : base+off+k] {
			hist[v] += c
		}
		if sd.minus != nil {
			for v, c := range sd.minus[base+off : base+off+k] {
				hist[v] -= c
			}
		}
	}
	return hist, n
}

// ProbPred returns P(p satisfied | the side's rows that satisfy every
// assumed predicate), computed as empCond.stat and ProbRange compute it
// from the same rows.
func (sd *SweepSide) ProbPred(p query.Pred) float64 {
	hist, n := sd.histCounts(sd.sw.bit(p))
	k := len(hist)
	// prefix[v] = P(X < v), summed left to right as stat does; only the
	// two entries ProbRange reads are kept.
	hiEnd := min(int(p.R.Hi)+1, k)
	loEnd := int(p.R.Lo)
	var in float64
	if loEnd < hiEnd {
		var prefix, atLo float64
		for v := 0; v < hiEnd; v++ {
			if v == loEnd {
				atLo = prefix
			}
			if n > 0 {
				prefix += float64(hist[v]) / float64(n)
			} else {
				prefix += 1 / float64(k) // unsupported context: uniform
			}
		}
		in = clampProb(prefix - atLo)
	}
	if p.Negated {
		return clampProb(1 - in)
	}
	return in
}

// MaskJoint is PredMaskJoint over preds, each of which must be one of the
// sweep's predicates, under the side's rows that satisfy every assumed
// predicate. Sweep predicates missing from preds are summed out.
func (sd *SweepSide) MaskJoint(preds []query.Pred) []float64 {
	sw := sd.sw
	if len(preds) > MaxJointPreds {
		panic("stats: SweepSide.MaskJoint: too many predicates")
	}
	var bits [MaxJointPreds]uint8
	for i, p := range preds {
		bits[i] = uint8(sw.bit(p))
	}
	out := make([]float64, 1<<uint(len(preds)))
	n := 0
	for id, mask := range sw.masks {
		if mask&sd.given != sd.given {
			continue
		}
		c := int(sd.count(id * sw.stride))
		var sub uint32
		for i := range preds {
			sub |= (mask >> bits[i] & 1) << uint(i)
		}
		out[sub] += float64(c)
		n += c
	}
	if n == 0 {
		u := 1 / float64(len(out))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i := range out {
		out[i] /= float64(n)
	}
	return out
}
