// Package query implements the two query classes the paper evaluates over
// cleaned data (§6.6):
//
//   - stay queries: where was the object at time τ? Answered with the
//     conditioned marginal distribution over locations.
//   - trajectory queries: does the trajectory match a pattern? A pattern is
//     a sequence of location conditions — a location name `l` (a run of l of
//     length ≥ 1), `l[n]` (a run of length ≥ n) or the wildcard `?` (any,
//     possibly empty, sequence). The probabilistic answer is the total
//     conditioned probability of the matching trajectories.
//
// Patterns are compiled to an NFA and then determinized; the probability of
// a match is computed by dynamic programming over (ct-graph node, DFA state)
// pairs. Determinization matters for correctness: it guarantees every
// trajectory is counted exactly once even when the pattern is ambiguous.
package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Condition is one element of a trajectory pattern.
type Condition struct {
	// Wildcard marks the `?` condition, matching any (possibly empty)
	// sequence of locations. When set, Loc and MinLen are ignored.
	Wildcard bool
	// Loc is the location ID the condition requires.
	Loc int
	// MinLen is the minimum run length (>= 1).
	MinLen int
}

// Pattern is a trajectory pattern: the concatenation of its conditions'
// expansions must equal the trajectory's location sequence.
type Pattern []Condition

// Wild returns the wildcard condition.
func Wild() Condition { return Condition{Wildcard: true} }

// At returns the condition matching a run of loc of length at least minLen
// (clamped up to 1).
func At(loc, minLen int) Condition {
	if minLen < 1 {
		minLen = 1
	}
	return Condition{Loc: loc, MinLen: minLen}
}

// String renders the pattern in the paper's syntax with numeric location
// names (use Format for named locations).
func (p Pattern) String() string { return p.Format(nil) }

// Format renders the pattern, naming locations through the given function
// (nil falls back to L<id>).
func (p Pattern) Format(name func(int) string) string {
	if name == nil {
		name = func(id int) string { return "L" + strconv.Itoa(id) }
	}
	parts := make([]string, len(p))
	for i, c := range p {
		switch {
		case c.Wildcard:
			parts[i] = "?"
		case c.MinLen > 1:
			parts[i] = fmt.Sprintf("%s[%d]", name(c.Loc), c.MinLen)
		default:
			parts[i] = name(c.Loc)
		}
	}
	return strings.Join(parts, " ")
}

// ParsePattern parses the paper's pattern syntax: whitespace-separated
// conditions, each `?`, `name`, or `name[n]`. Location names are resolved
// through the supplied function.
func ParsePattern(s string, resolve func(name string) (int, error)) (Pattern, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, fmt.Errorf("query: empty pattern")
	}
	var p Pattern
	for _, f := range fields {
		if f == "?" {
			p = append(p, Wild())
			continue
		}
		name := f
		minLen := 1
		if i := strings.IndexByte(f, '['); i >= 0 {
			if !strings.HasSuffix(f, "]") {
				return nil, fmt.Errorf("query: malformed condition %q", f)
			}
			n, err := strconv.Atoi(f[i+1 : len(f)-1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("query: bad run length in %q", f)
			}
			name, minLen = f[:i], n
		}
		if name == "" {
			return nil, fmt.Errorf("query: missing location name in %q", f)
		}
		loc, err := resolve(name)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		p = append(p, At(loc, minLen))
	}
	return p, nil
}

// Validate checks the pattern for structural sanity.
func (p Pattern) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("query: empty pattern")
	}
	for i, c := range p {
		if !c.Wildcard {
			if c.MinLen < 1 {
				return fmt.Errorf("query: condition %d has run length %d", i, c.MinLen)
			}
			if c.Loc < 0 {
				return fmt.Errorf("query: condition %d has negative location", i)
			}
		}
	}
	return nil
}

// MinDuration returns the minimum trajectory length the pattern can match:
// the sum of the non-wildcard run lengths.
func (p Pattern) MinDuration() int {
	n := 0
	for _, c := range p {
		if !c.Wildcard {
			n += c.MinLen
		}
	}
	return n
}

// longerThan reports whether MinDuration exceeds n. The sum stops as soon as
// it passes n, so run lengths near the int limit cannot overflow it.
func (p Pattern) longerThan(n int) bool {
	sum := 0
	for _, c := range p {
		if c.Wildcard {
			continue
		}
		if c.MinLen > n-sum {
			return true
		}
		sum += c.MinLen
	}
	return false
}
