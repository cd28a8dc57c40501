package fivm

import (
	"fmt"
	"strings"

	"repro/internal/m3"
	"repro/internal/query"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// validateGroupBy fails fast when a GROUP BY attribute is missing from
// the joined schema — otherwise the error surfaces later as a confusing
// "free variable not in the variable order" from the view layer.
// Queries produced by Parse are already validated against a catalog;
// this guards hand-built query.Query values too.
func validateGroupBy(q *query.Query) error {
	attrs := value.NewSchema()
	names := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		attrs = attrs.Union(r.Schema)
		names[i] = r.Name
	}
	for _, g := range q.GroupBy {
		if !attrs.Has(g) {
			return fmt.Errorf("fivm: GROUP BY attribute %s not in the schema of the joined relations (%s)", g, strings.Join(names, ", "))
		}
	}
	return nil
}

// CountEngine maintains a COUNT (SUM(1)) query over a natural join,
// optionally grouped, using the Z ring. It is the simplest F-IVM
// instantiation: payloads are tuple multiplicities.
type CountEngine struct {
	*Engine[int64]
	Query *query.Query
}

// NewCountEngine compiles a parsed SUM(1) query (with optional GROUP BY)
// into a Z-ring view tree. A nil order derives one with the greedy
// heuristic.
func NewCountEngine(q *query.Query, order *vo.Order) (*CountEngine, error) {
	if len(q.Aggregates) != 1 {
		return nil, fmt.Errorf("fivm: count engine needs exactly one aggregate, got %d", len(q.Aggregates))
	}
	agg := q.Aggregates[0]
	if len(agg.Factors) != 1 || !agg.Factors[0].IsConst || agg.Factors[0].Const != 1 {
		return nil, fmt.Errorf("fivm: count engine needs SUM(1), got %v", agg)
	}
	if err := validateGroupBy(q); err != nil {
		return nil, err
	}
	tree, err := view.New(view.Spec[int64]{
		Ring:      ring.Ints{},
		Order:     order,
		Relations: q.VORels(),
		Free:      q.GroupBy,
	})
	if err != nil {
		return nil, err
	}
	e := &CountEngine{Query: q}
	e.Engine = NewEngine(KindCount, tree, EngineOptions[int64]{
		Codec:   ring.IntCodec{},
		M3:      m3.RingInfo{Name: "long"},
		Publish: func() Model { return tableModel(e.Engine, func(v int64) float64 { return float64(v) }) },
	})
	return e, nil
}

// FloatEngine maintains one SUM aggregate of a product of per-attribute
// functions over a natural join using the float ring, e.g.
// SUM(B * sq(C)) or SUM(B * D) GROUP BY A.
type FloatEngine struct {
	*Engine[float64]
	Query *query.Query
}

// floatFuncs is the registry of factor functions for the float ring.
var floatFuncs = map[string]func(value.Value) float64{
	"":   ring.IdentityLift,
	"id": ring.IdentityLift,
	"sq": ring.SquareLift,
}

// NewFloatEngine compiles a parsed single-aggregate query into a
// float-ring view tree. Each attribute may appear in at most one factor
// (write SUM(sq(B)) rather than SUM(B * B)); constant factors scale the
// aggregate. All factors are validated before the view tree is built. A
// nil order derives one with the greedy heuristic.
func NewFloatEngine(q *query.Query, order *vo.Order) (*FloatEngine, error) {
	if len(q.Aggregates) != 1 {
		return nil, fmt.Errorf("fivm: float engine needs exactly one aggregate, got %d", len(q.Aggregates))
	}
	if err := validateGroupBy(q); err != nil {
		return nil, err
	}
	agg := q.Aggregates[0]
	lifts := map[string]ring.Lift[float64]{}
	scale := 1.0
	for _, f := range agg.Factors {
		if f.IsConst {
			scale *= f.Const
			continue
		}
		fn, ok := floatFuncs[f.Func]
		if !ok {
			return nil, fmt.Errorf("fivm: unknown factor function %q (have id, sq)", f.Func)
		}
		if _, dup := lifts[f.Attr]; dup {
			return nil, fmt.Errorf("fivm: attribute %s appears in two factors; compose functions instead", f.Attr)
		}
		lifts[f.Attr] = fn
	}
	if scale != 1 {
		if len(lifts) == 0 {
			return nil, fmt.Errorf("fivm: pure-constant aggregate SUM(%v): use SUM(1) with the count engine and scale externally", scale)
		}
		// Fold the constant into one of the lifts by wrapping it.
		for attr, fn := range lifts {
			inner := fn
			lifts[attr] = func(v value.Value) float64 { return scale * inner(v) }
			break
		}
	}
	tree, err := view.New(view.Spec[float64]{
		Ring:      ring.Floats{},
		Order:     order,
		Relations: q.VORels(),
		Lifts:     lifts,
		Free:      q.GroupBy,
	})
	if err != nil {
		return nil, err
	}
	e := &FloatEngine{Query: q}
	e.Engine = NewEngine(KindFloat, tree, EngineOptions[float64]{
		Codec: ring.FloatCodec{},
		M3:    m3.RingInfo{Name: "double"},
		Publish: func() Model {
			return tableModel(e.Engine, func(v float64) float64 { return v })
		},
	})
	return e, nil
}

// CovarEngine maintains the scalar degree-m COVAR matrix over
// all-continuous attributes — the cheaper sibling of Analysis for
// workloads without categorical features.
type CovarEngine struct {
	*Engine[*ring.Covar]
	Ring  ring.CovarRing
	Attrs []string
}

// NewCovarEngine builds a scalar COVAR engine over the given continuous
// attributes of the joined relations.
func NewCovarEngine(rels []RelationSpec, attrs []string, order *vo.Order) (*CovarEngine, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("fivm: no aggregate attributes")
	}
	vrels := make([]vo.Rel, len(rels))
	schema := value.NewSchema()
	for i, r := range rels {
		vrels[i] = vo.Rel{Name: r.Name, Schema: value.NewSchema(r.Attrs...)}
		schema = schema.Union(vrels[i].Schema)
	}
	rg := ring.NewCovarRing(len(attrs))
	lifts := map[string]ring.Lift[*ring.Covar]{}
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if !schema.Has(a) {
			return nil, fmt.Errorf("fivm: aggregate attribute %s not in any relation", a)
		}
		if _, dup := lifts[a]; dup {
			return nil, fmt.Errorf("fivm: attribute %s listed twice", a)
		}
		lifts[a] = rg.Lift(i)
		idx[a] = i
	}
	tree, err := view.New(view.Spec[*ring.Covar]{
		Ring:      rg,
		Order:     order,
		Relations: vrels,
		Lifts:     lifts,
	})
	if err != nil {
		return nil, err
	}
	cp := make([]string, len(attrs))
	copy(cp, attrs)
	e := &CovarEngine{Ring: rg, Attrs: cp}
	e.Engine = NewEngine(KindCovar, tree, EngineOptions[*ring.Covar]{
		Codec: ring.CovarCodec{Ring: rg},
		Clone: (*ring.Covar).Clone,
		M3: m3.RingInfo{
			Name: fmt.Sprintf("RingCofactor<double, %d>", len(attrs)),
			LiftIndexOf: func(v string) int {
				if i, ok := idx[v]; ok {
					return i
				}
				return -1
			},
		},
		Publish: func() Model {
			return &CovarModel{EngineKind: KindCovar, Attrs: cp, Payload: e.Payload().Clone()}
		},
	})
	return e, nil
}

// Covar returns the compound aggregate, failing on the empty join per
// the package's result-access convention. Use Payload for the raw
// (possibly nil) value.
func (e *CovarEngine) Covar() (*ring.Covar, error) {
	p := e.Payload()
	if p == nil {
		return nil, fmt.Errorf("fivm: empty join result")
	}
	return p, nil
}
