package exec

import (
	"fmt"

	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/trace"
)

// program is a plan compiled for execution: the node tree flattened into
// a contiguous instruction array in pre-order, with child pointers
// replaced by int32 indexes. Walking a program chases no pointers and
// touches one cache line per couple of nodes instead of one heap object
// per node; an instruction's index is exactly the node's pre-order ID
// (plan.NodeIDs), so per-node profile attribution falls out for free.
type program struct {
	ops []progOp
	// prof, when non-nil, receives run's visits and charges. A field, not
	// a parameter of run: a tenth argument word spills past the register
	// ABI's nine integer registers and slows every tuple.
	prof *trace.ExecProfile
}

// progOp is one compiled plan node.
type progOp struct {
	kind plan.Kind
	// Leaf.
	result bool
	// Split: test col[attr] >= x, jump to left (false) or right (true).
	attr        int32
	x           schema.Value
	left, right int32
	// Seq.
	preds []query.Pred
}

// compile flattens a plan into a program. The instruction at index i
// corresponds to the i-th node of p.Preorder(). The plan must be valid
// (plan.Node.Validate); Execute and NewTupleExecutor check that first.
func compile(p *plan.Node) *program {
	pg := &program{ops: make([]progOp, 0, 8)}
	pg.emit(p)
	return pg
}

// emit appends the subtree rooted at n and returns its instruction index.
func (pg *program) emit(n *plan.Node) int32 {
	at := int32(len(pg.ops))
	switch n.Kind {
	case plan.Leaf:
		pg.ops = append(pg.ops, progOp{kind: plan.Leaf, result: n.Result})
	case plan.Split:
		pg.ops = append(pg.ops, progOp{kind: plan.Split, attr: int32(n.Attr), x: n.X})
		l := pg.emit(n.Left)
		r := pg.emit(n.Right)
		pg.ops[at].left, pg.ops[at].right = l, r
	case plan.Seq:
		pg.ops = append(pg.ops, progOp{kind: plan.Seq, preds: n.Preds})
	default:
		panic(fmt.Sprintf("exec: invalid node kind %d", n.Kind))
	}
	return at
}

// run evaluates the program on the batch's row i, reading attribute
// values straight from the batch's columns (no row copy) and charging
// first-touch acquisitions into acquired — exactly the traversal,
// charge, and accumulation order of plan.Node.Execute, so costs are
// bit-identical to the legacy tuple-at-a-time executor. Visits and
// charges are attributed to pg.prof (nil disables attribution), with the
// instruction index as the node ID.
func (pg *program) run(s *schema.Schema, cols [][]schema.Value, i int, acquired []bool) (result bool, cost float64) {
	prof := pg.prof
	id := int32(0)
	for {
		op := &pg.ops[id]
		prof.Visit(int(id))
		switch op.kind {
		case plan.Leaf:
			return op.result, cost
		case plan.Split:
			a := op.attr
			if !acquired[a] {
				c := s.AcquisitionCost(int(a), acquired)
				cost += c
				acquired[a] = true
				prof.Charge(int(id), int(a), c, 1)
			}
			if cols[a][i] >= op.x {
				id = op.right
			} else {
				id = op.left
			}
		default: // plan.Seq
			for _, p := range op.preds {
				if !acquired[p.Attr] {
					c := s.AcquisitionCost(p.Attr, acquired)
					cost += c
					acquired[p.Attr] = true
					prof.Charge(int(id), p.Attr, c, 1)
				}
				if !p.Eval(cols[p.Attr][i]) {
					return false, cost
				}
			}
			return true, cost
		}
	}
}
