package schema

import "fmt"

// Boards model the "complex acquisition costs" extension of Section 7 of
// the paper: motes carry sensor boards whose sensors are powered up
// together, so the cost of a reading decomposes into a high one-time
// board power-up cost plus a low per-sensor sampling cost. Acquiring a
// second attribute from an already-powered board skips the power-up.
//
// An attribute's Board field names its board; board 0 means the attribute
// is independent (no shared power-up). Board power-up costs are
// registered on the schema with SetBoardCost.

// SetBoardCost registers the one-time power-up cost of a board. Board ids
// must be positive; costs must be non-negative.
func (s *Schema) SetBoardCost(board int, cost float64) error {
	if board <= 0 {
		return fmt.Errorf("schema: board id %d must be positive", board)
	}
	if cost < 0 {
		return fmt.Errorf("schema: board %d: negative cost %g", board, cost)
	}
	if s.boardCosts == nil {
		s.boardCosts = make(map[int]float64)
	}
	s.boardCosts[board] = cost
	return nil
}

// BoardCost returns the power-up cost of a board (0 for board 0 or
// unregistered boards).
func (s *Schema) BoardCost(board int) float64 {
	if board <= 0 || s.boardCosts == nil {
		return 0
	}
	return s.boardCosts[board]
}

// BoardAttrs returns the indexes of the attributes on the given board, in
// schema order. Board 0 returns nil.
func (s *Schema) BoardAttrs(board int) []int {
	if board <= 0 {
		return nil
	}
	var out []int
	for i, a := range s.attrs {
		if a.Board == board {
			out = append(out, i)
		}
	}
	return out
}

// AcquisitionCost returns the cost of acquiring attribute attr given
// which attributes have already been acquired this tuple: the attribute's
// own cost, plus its board's power-up cost if no attribute sharing the
// board has been acquired yet. acquired is indexed by attribute.
func (s *Schema) AcquisitionCost(attr int, acquired []bool) float64 {
	// A pointer, not a copy: executors call this for every acquisition,
	// and reading a field back from a copied Attribute waits on the copy's
	// stack stores, a stall whose size varies with the frame's alignment.
	a := &s.attrs[attr]
	cost := a.Cost
	if a.Board > 0 && !s.boardPowered(a.Board, acquired) {
		cost += s.BoardCost(a.Board)
	}
	return cost
}

// AcquisitionCostWith is AcquisitionCost generalized over any notion of
// "already acquired" (a bitset during execution, a range-box restriction
// during planning): it returns the attribute's cost plus its board's
// power-up cost unless isAcquired reports true for some attribute sharing
// the board.
func (s *Schema) AcquisitionCostWith(attr int, isAcquired func(int) bool) float64 {
	a := s.attrs[attr]
	cost := a.Cost
	if a.Board > 0 {
		powered := false
		for i := range s.attrs {
			if i != attr && s.attrs[i].Board == a.Board && isAcquired(i) {
				powered = true
				break
			}
		}
		if !powered {
			cost += s.BoardCost(a.Board)
		}
	}
	return cost
}

// boardPowered reports whether any acquired attribute shares the board.
func (s *Schema) boardPowered(board int, acquired []bool) bool {
	for i := range s.attrs {
		if s.attrs[i].Board == board && acquired[i] {
			return true
		}
	}
	return false
}

// HasBoards reports whether any attribute belongs to a shared board;
// callers on hot paths can skip board bookkeeping entirely when false.
func (s *Schema) HasBoards() bool {
	for _, a := range s.attrs {
		if a.Board > 0 {
			return true
		}
	}
	return false
}

// MaxAcquisitionCost returns the largest possible cost of acquiring the
// attribute (own cost plus full board power-up).
func (s *Schema) MaxAcquisitionCost(attr int) float64 {
	a := s.attrs[attr]
	return a.Cost + s.BoardCost(a.Board)
}
