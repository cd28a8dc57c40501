package fivm

import (
	"fmt"

	"repro/internal/m3"
	"repro/internal/ml"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// RangedCovarEngine maintains the scalar COVAR matrix with *ranged*
// payloads — the `RingCofactor<double, idx, cnt>` optimization of the
// paper's Figure 2d. Each view carries aggregates only for the
// attributes of its own subtree: leaf views hold degree-1 payloads,
// sizes grow toward the root, and only the root holds the full degree-m
// compound. Aggregate indexes are assigned in the view tree's
// structural (post-)order so every payload product combines adjacent
// ranges.
type RangedCovarEngine struct {
	*Engine[*ring.RangedCovar]
	Ring ring.RangedCovarRing
	// Attrs maps aggregate index -> attribute name (the structural
	// assignment order, not the caller's order).
	Attrs []string
}

// NewRangedCovarEngine builds the engine over the continuous attributes
// attrs of the joined relations.
func NewRangedCovarEngine(rels []RelationSpec, attrs []string, order *vo.Order) (*RangedCovarEngine, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("fivm: no aggregate attributes")
	}
	vrels := make([]vo.Rel, len(rels))
	schema := value.NewSchema()
	for i, r := range rels {
		vrels[i] = vo.Rel{Name: r.Name, Schema: value.NewSchema(r.Attrs...)}
		schema = schema.Union(vrels[i].Schema)
	}
	want := map[string]bool{}
	for _, a := range attrs {
		if !schema.Has(a) {
			return nil, fmt.Errorf("fivm: aggregate attribute %s not in any relation", a)
		}
		if want[a] {
			return nil, fmt.Errorf("fivm: attribute %s listed twice", a)
		}
		want[a] = true
	}
	if order == nil {
		var err error
		order, err = vo.Build(vrels)
		if err != nil {
			return nil, err
		}
	}

	// Assign aggregate indexes in post-order of the variable order: the
	// order in which the engine's products combine subtree payloads, so
	// ranges always meet adjacently.
	var rg ring.RangedCovarRing
	lifts := map[string]ring.Lift[*ring.RangedCovar]{}
	var indexed []string
	idx := map[string]int{}
	var post func(n *vo.Node)
	post = func(n *vo.Node) {
		for _, c := range n.Children {
			post(c)
		}
		if want[n.Var] {
			lifts[n.Var] = rg.Lift(len(indexed))
			idx[n.Var] = len(indexed)
			indexed = append(indexed, n.Var)
		}
	}
	for _, r := range order.Roots {
		post(r)
	}
	if len(indexed) != len(attrs) {
		return nil, fmt.Errorf("fivm: indexed %d of %d aggregate attributes; attribute missing from the order", len(indexed), len(attrs))
	}

	tree, err := view.New(view.Spec[*ring.RangedCovar]{
		Ring:      rg,
		Order:     order,
		Relations: vrels,
		Lifts:     lifts,
	})
	if err != nil {
		return nil, err
	}
	e := &RangedCovarEngine{Ring: rg, Attrs: indexed}
	e.Engine = NewEngine(KindRangedCovar, tree, EngineOptions[*ring.RangedCovar]{
		Codec: ring.RangedCovarCodec{},
		Clone: (*ring.RangedCovar).Clone,
		M3: m3.RingInfo{
			Name: "RingCofactor<double, idx, cnt>",
			LiftIndexOf: func(v string) int {
				if i, ok := idx[v]; ok {
					return i
				}
				return -1
			},
		},
		Publish: func() Model {
			m := &CovarModel{EngineKind: KindRangedCovar, Attrs: e.Attrs}
			p, err := e.Covar()
			if err != nil {
				m.Err = err.Error()
			} else {
				m.Payload = p.Clone()
			}
			return m
		},
	})
	return e, nil
}

// Covar widens the root compound aggregate to a full Covar of degree
// len(Attrs), failing on the empty join per the package's result-access
// convention. Use Payload for the raw ranged (possibly nil) value.
func (e *RangedCovarEngine) Covar() (*ring.Covar, error) {
	p, err := e.Payload().ToCovar(len(e.Attrs))
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("fivm: empty join result")
	}
	return p, nil
}

// Sigma converts the payload into the solver's SigmaMatrix with columns
// in e.Attrs order.
func (e *RangedCovarEngine) Sigma() (*ml.SigmaMatrix, error) {
	p, err := e.Covar()
	if err != nil {
		return nil, err
	}
	feats := make([]ml.Feature, len(e.Attrs))
	for i, a := range e.Attrs {
		feats[i] = ml.Feature{Name: a, Index: i}
	}
	return ml.SigmaFromCovar(p, feats)
}
