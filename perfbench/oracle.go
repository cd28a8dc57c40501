package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/baseline"
	"repro/internal/ring"
	"repro/internal/value"
)

// relTol is the relative tolerance of every model comparison.
const relTol = 1e-9

// checker compares served aggregates with expected ones. With corrupt
// set, every expected value is scaled by 1+1e-6 first, so a correct
// system must fail the check.
type checker struct {
	corrupt bool
}

func (c checker) expect(v float64) float64 {
	if c.corrupt {
		return v * (1 + 1e-6)
	}
	return v
}

// near reports whether got matches want to within relTol of scale.
func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= relTol*scale
}

// covarLike is the read surface of a scalar COVAR payload.
type covarLike interface {
	Degree() int
	Count() float64
	Sum(i int) float64
	Prod(i, j int) float64
}

// covar compares two scalar COVAR payloads aggregate by aggregate.
// A sum or product is held to relTol of its Cauchy–Schwarz bound
// (√(count·Σx²) or √(Σx²·Σy²)), so a value that cancels to near zero
// is judged against the magnitudes that produced it.
func (c checker) covar(what string, got covarLike, want *ring.Covar) error {
	if want == nil {
		return fmt.Errorf("%s: empty expected join result", what)
	}
	m := want.Degree()
	if got.Degree() != m {
		return fmt.Errorf("%s: degree %d, want %d", what, got.Degree(), m)
	}
	sq := func(i int) float64 { return math.Abs(want.Prod(i, i)) }
	if w := c.expect(want.Count()); !near(got.Count(), w, math.Abs(w)) {
		return fmt.Errorf("%s: count %v, want %v", what, got.Count(), w)
	}
	for i := 0; i < m; i++ {
		if w := c.expect(want.Sum(i)); !near(got.Sum(i), w, math.Max(math.Abs(w), math.Sqrt(math.Abs(want.Count())*sq(i)))) {
			return fmt.Errorf("%s: sum %d = %v, want %v", what, i, got.Sum(i), w)
		}
		for j := i; j < m; j++ {
			if w := c.expect(want.Prod(i, j)); !near(got.Prod(i, j), w, math.Max(math.Abs(w), math.Sqrt(sq(i)*sq(j)))) {
				return fmt.Errorf("%s: product (%d,%d) = %v, want %v", what, i, j, got.Prod(i, j), w)
			}
		}
	}
	return nil
}

// relVal compares one generalized aggregate (a map from category key to
// value) normwise: every entry within relTol of the largest magnitude
// in either map. A key missing on one side counts as 0.
func (c checker) relVal(what string, got, want ring.RelVal) error {
	var scale float64
	keys := map[string]bool{}
	for k, v := range want {
		keys[k] = true
		scale = math.Max(scale, math.Abs(c.expect(v)))
	}
	for k, v := range got {
		keys[k] = true
		scale = math.Max(scale, math.Abs(v))
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if w := c.expect(want[k]); !near(got[k], w, scale) {
			return fmt.Errorf("%s[%v]: %v, want %v", what, value.MustDecodeTuple(k), got[k], w)
		}
	}
	return nil
}

// relCovar compares two generalized COVAR payloads over every
// aggregate, continuous and categorical.
func (c checker) relCovar(what string, got, want *ring.RelCovar) error {
	if got == nil || want == nil {
		return fmt.Errorf("%s: missing payload (got %v, want %v)", what, got != nil, want != nil)
	}
	if got.Degree() != want.Degree() {
		return fmt.Errorf("%s: degree %d, want %d", what, got.Degree(), want.Degree())
	}
	if err := c.relVal(what+" count", got.Count(), want.Count()); err != nil {
		return err
	}
	m := want.Degree()
	for i := 0; i < m; i++ {
		if err := c.relVal(fmt.Sprintf("%s sum %d", what, i), got.Sum(i), want.Sum(i)); err != nil {
			return err
		}
		for j := i; j < m; j++ {
			if err := c.relVal(fmt.Sprintf("%s product (%d,%d)", what, i, j), got.Prod(i, j), want.Prod(i, j)); err != nil {
				return err
			}
		}
	}
	return nil
}

// continuousBlock is the scalar COVAR view of a generalized payload's
// first m features, all continuous.
type continuousBlock struct {
	p *ring.RelCovar
	m int
}

func (b continuousBlock) Degree() int           { return b.m }
func (b continuousBlock) Count() float64        { return b.p.Count().Scalar() }
func (b continuousBlock) Sum(i int) float64     { return b.p.Sum(i).Scalar() }
func (b continuousBlock) Prod(i, j int) float64 { return b.p.Prod(i, j).Scalar() }

// reeval computes the oracle payload: the baseline re-evaluation over
// the whole database.
func reeval(f *fixture, data map[string][]value.Tuple, attrs []string) (*ring.Covar, error) {
	re, err := baseline.NewReeval(f.bspecs, attrs)
	if err != nil {
		return nil, err
	}
	if err := re.Init(data); err != nil {
		return nil, err
	}
	return re.Payload(), nil
}
