// Package condfix is the condshare golden fixture. Its path contains
// internal/opt, so it sits inside the analyzer's scope; the Cond stand-in
// below gives the purely syntactic matcher the method names it looks for.
package condfix

type cond struct{}

func (cond) RestrictRange(attr int, lo, hi int) cond { return cond{} }
func (cond) RestrictPred(p int, v bool) cond         { return cond{} }

// childCond is on the allowlist: derivations here are fine.
func childCond(c cond, attr int) cond {
	return c.RestrictRange(attr, 0, 1)
}

// restrictLazy may derive inside a returned closure; the enclosing
// declaration is what the allowlist matches.
func restrictLazy(c cond, attr int) func() cond {
	return func() cond { return c.RestrictRange(attr, 2, 3) }
}

// evalCandidate is search code: it must route through the helpers.
func evalCandidate(c cond, attr int) cond {
	lo := c.RestrictRange(attr, 0, 4) // want "condshare: Cond.RestrictRange outside the derivation helpers"
	_ = c.RestrictPred(attr, false)   // want "condshare: Cond.RestrictPred outside the derivation helpers"
	return lo
}

type planner struct{ c cond }

// childCond as a method does not qualify: the allowlist is plain
// functions only.
func (p planner) childCond(attr int) cond {
	return p.c.RestrictRange(attr, 0, 1) // want "condshare: Cond.RestrictRange outside the derivation helpers"
}

// suppressible shows the escape hatch for a justified one-off.
func suppressible(c cond) cond {
	//acqlint:ignore condshare fixture demonstrates the directive
	return c.RestrictRange(0, 0, 0)
}
