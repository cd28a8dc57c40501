package fivm_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/fivm"
	"repro/internal/ml"
	"repro/internal/value"
	"repro/internal/view"
)

func toyConfig() fivm.AnalysisConfig {
	return fivm.AnalysisConfig{
		Relations: []fivm.RelationSpec{
			{Name: "R", Attrs: []string{"A", "B"}},
			{Name: "S", Attrs: []string{"A", "C", "D"}},
		},
		Features: []fivm.FeatureSpec{
			{Attr: "B"},
			{Attr: "C", Categorical: true},
			{Attr: "D"},
		},
	}
}

func toyData() map[string][]value.Tuple {
	return map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a2", 2)},
		"S": {value.T("a1", 1, 1), value.T("a1", 2, 3), value.T("a2", 2, 2)},
	}
}

func TestAnalysisEndToEnd(t *testing.T) {
	an, err := fivm.NewAnalysis(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	p := an.Payload()
	if p == nil || p.Count().Scalar() != 3 {
		t.Fatalf("payload count = %v", p)
	}
	sigma, err := an.Covar()
	if err != nil {
		t.Fatal(err)
	}
	// Columns: B, C=1, C=2, D.
	if sigma.Dim() != 4 {
		t.Fatalf("sigma dim = %d", sigma.Dim())
	}
	if sigma.Count != 3 {
		t.Errorf("sigma count = %v", sigma.Count)
	}
	ib := sigma.ColumnsOf("B")[0]
	id := sigma.ColumnsOf("D")[0]
	if sigma.Sum[ib] != 4 || sigma.Sum[id] != 6 {
		t.Errorf("sums = %v, %v", sigma.Sum[ib], sigma.Sum[id])
	}
	if sigma.At(ib, id) != 8 {
		t.Errorf("Q(B,D) = %v, want 8", sigma.At(ib, id))
	}

	// Maintenance through the facade.
	if err := an.Apply([]view.Update{{Rel: "R", Tuple: value.T("a1", 1), Mult: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := an.Payload().Count().Scalar(); got != 5 {
		t.Errorf("count after insert = %v, want 5", got)
	}
	if err := an.Apply([]view.Update{{Rel: "R", Tuple: value.T("a1", 1), Mult: -1}}); err != nil {
		t.Fatal(err)
	}
	if got := an.Payload().Count().Scalar(); got != 3 {
		t.Errorf("count after delete = %v, want 3", got)
	}
	if an.Stats().Updates == 0 {
		t.Error("stats not accumulating")
	}
	if len(an.Features()) != 3 {
		t.Error("features accessor")
	}
	if an.Tree() == nil {
		t.Error("tree accessor")
	}
}

func TestAnalysisRidge(t *testing.T) {
	an, err := fivm.NewAnalysis(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	model, sigma, err := an.Ridge("D", ml.RidgeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || sigma == nil {
		t.Fatal("nil results")
	}
	// A categorical label must be rejected.
	if _, _, err := an.Ridge("C", ml.RidgeConfig{}); err == nil {
		t.Error("categorical label accepted")
	}
}

func modelJSON(t *testing.T, m fivm.Model) string {
	t.Helper()
	res, err := m.ResultJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAnalysisModelIsHistoryIndependent threads prev through a chain of
// publishes and requires the last model to render byte-identically to a
// fresh publish of the same engine: the served fit is a function of the
// payload alone, not of the publish history.
func TestAnalysisModelIsHistoryIndependent(t *testing.T) {
	cfg := toyConfig()
	cfg.Label = "D"
	an, err := fivm.NewAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var prev fivm.Model
	for b := 0; b < 12; b++ {
		var ups []view.Update
		for i := 0; i < 20; i++ {
			a := rng.Intn(8)
			ups = append(ups,
				view.Update{Rel: "R", Tuple: value.T(a, rng.Intn(100)), Mult: 1},
				view.Update{Rel: "S", Tuple: value.T(a, rng.Intn(3), rng.Intn(1000)), Mult: 1})
		}
		if err := an.Apply(ups); err != nil {
			t.Fatal(err)
		}
		prev = an.PublishModel(prev)
	}
	if chained, fresh := modelJSON(t, prev), modelJSON(t, an.PublishModel(nil)); chained != fresh {
		t.Errorf("model after a publish chain differs from a fresh publish:\nchain: %s\nfresh: %s", chained, fresh)
	}
}

// TestAnalysisFitErrOnOverflow feeds values whose squares overflow: the
// published model must carry a fit error, not NaN weights.
func TestAnalysisFitErrOnOverflow(t *testing.T) {
	cfg := toyConfig()
	cfg.Label = "D"
	an, err := fivm.NewAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Init(map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a2", 2)},
		"S": {value.T("a1", 1, 1e300), value.T("a2", 2, -1e300)},
	}); err != nil {
		t.Fatal(err)
	}
	m := an.PublishModel(nil).(*fivm.AnalysisModel)
	if m.FitErr == "" || m.Model != nil {
		t.Fatalf("FitErr = %q, model = %+v; want a fit error and no model", m.FitErr, m.Model)
	}
	if _, err := m.ResultJSON(); err == nil {
		t.Error("ResultJSON rendered a failed fit")
	}
}

func TestAnalysisMIAndApps(t *testing.T) {
	cfg := toyConfig()
	cfg.Features = []fivm.FeatureSpec{
		{Attr: "B", Categorical: true},
		{Attr: "C", Categorical: true},
		{Attr: "D", Categorical: true},
	}
	an, err := fivm.NewAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	mi, err := an.MI()
	if err != nil {
		t.Fatal(err)
	}
	if mi.Dim() != 3 {
		t.Fatalf("MI dim = %d", mi.Dim())
	}
	// On the toy join, B and C are strongly dependent (both determined
	// by A up to one collision).
	if mi.At(0, 1) <= 0 {
		t.Errorf("I(B,C) = %v, want > 0", mi.At(0, 1))
	}
	ranking, _, err := an.SelectFeatures("D", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != 2 {
		t.Errorf("ranking = %v", ranking)
	}
	tree, err := an.ChowLiu("B")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != "B" || len(tree.Edges) != 2 {
		t.Errorf("tree = %+v", tree)
	}
}

func TestAnalysisMIRejectsContinuous(t *testing.T) {
	an, err := fivm.NewAnalysis(toyConfig()) // B and D continuous
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if _, err := an.MI(); err == nil {
		t.Error("MI over continuous features accepted")
	}
}

func TestAnalysisConfigErrors(t *testing.T) {
	base := toyConfig()

	c := base
	c.Features = nil
	if _, err := fivm.NewAnalysis(c); err == nil {
		t.Error("no features accepted")
	}

	c = base
	c.Relations = nil
	if _, err := fivm.NewAnalysis(c); err == nil {
		t.Error("no relations accepted")
	}

	c = base
	c.Features = []fivm.FeatureSpec{{Attr: "Z"}}
	if _, err := fivm.NewAnalysis(c); err == nil {
		t.Error("unknown feature accepted")
	}

	c = base
	c.Features = []fivm.FeatureSpec{{Attr: "B"}, {Attr: "B"}}
	if _, err := fivm.NewAnalysis(c); err == nil {
		t.Error("duplicate feature accepted")
	}

	for _, lambda := range []float64{-1, math.NaN()} {
		c = base
		c.Label = "D"
		c.Ridge = ml.RidgeConfig{Lambda: lambda}
		if _, err := fivm.NewAnalysis(c); err == nil {
			t.Errorf("NewAnalysis accepted lambda %v", lambda)
		}
		if _, err := fivm.Open(fivm.Config{Relations: c.Relations, Features: c.Features, Label: "D", Ridge: c.Ridge}); err == nil {
			t.Errorf("Open accepted lambda %v", lambda)
		}
	}
}

func TestAnalysisM3Rendering(t *testing.T) {
	an, err := fivm.NewAnalysis(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	vt := an.ViewTree()
	if !strings.Contains(vt, "V@A[]") {
		t.Errorf("ViewTree missing root:\n%s", vt)
	}
	code := an.M3()
	for _, frag := range []string{"DECLARE MAP", "RingCofactor<double, 3>", "[lift<0>"} {
		if !strings.Contains(code, frag) {
			t.Errorf("M3 missing %q:\n%s", frag, code)
		}
	}
}

func TestCountEngine(t *testing.T) {
	cat := fivm.NewCatalog()
	if err := cat.AddRelation("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRelation("S", "A", "C", "D"); err != nil {
		t.Fatal(err)
	}
	q, err := fivm.Parse(cat, "SELECT SUM(1) FROM R NATURAL JOIN S")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fivm.NewCountEngine(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Payload(); got != 3 {
		t.Errorf("count = %d", got)
	}

	// Grouped count.
	qg, err := fivm.Parse(cat, "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A")
	if err != nil {
		t.Fatal(err)
	}
	engG, err := fivm.NewCountEngine(qg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := engG.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if got, _ := engG.Result().Get(value.T("a1")); got != 2 {
		t.Errorf("count(a1) = %d", got)
	}

	// Rejections.
	qb, _ := fivm.Parse(cat, "SELECT SUM(B) FROM R")
	if _, err := fivm.NewCountEngine(qb, nil); err == nil {
		t.Error("non-count query accepted by count engine")
	}
}

func TestFloatEngine(t *testing.T) {
	cat := fivm.NewCatalog()
	if err := cat.AddRelation("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRelation("S", "A", "C", "D"); err != nil {
		t.Fatal(err)
	}
	q, err := fivm.Parse(cat, "SELECT SUM(B * D) FROM R NATURAL JOIN S")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fivm.NewFloatEngine(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	// SUM(B*D) over {(1,_,1),(1,_,3),(2,_,2)} = 1+3+4 = 8.
	if got := eng.Payload(); got != 8 {
		t.Errorf("SUM(B*D) = %v, want 8", got)
	}

	// sq() factor function.
	q2, _ := fivm.Parse(cat, "SELECT SUM(sq(D)) FROM S")
	eng2, err := fivm.NewFloatEngine(q2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Init(map[string][]value.Tuple{"S": toyData()["S"]}); err != nil {
		t.Fatal(err)
	}
	if got := eng2.Payload(); got != 14 { // 1+9+4
		t.Errorf("SUM(D*D) = %v, want 14", got)
	}

	// Constant scaling folds into a lift.
	q3, _ := fivm.Parse(cat, "SELECT SUM(2 * D) FROM S")
	eng3, err := fivm.NewFloatEngine(q3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng3.Init(map[string][]value.Tuple{"S": toyData()["S"]}); err != nil {
		t.Fatal(err)
	}
	if got := eng3.Payload(); got != 12 {
		t.Errorf("SUM(2*D) = %v, want 12", got)
	}

	// Duplicate attribute factors are rejected with guidance.
	qd, _ := fivm.Parse(cat, "SELECT SUM(D * D) FROM S")
	if _, err := fivm.NewFloatEngine(qd, nil); err == nil {
		t.Error("SUM(D*D) accepted; must demand sq(D)")
	}
	// Unknown function.
	qf, _ := fivm.Parse(cat, "SELECT SUM(cube(D)) FROM S")
	if _, err := fivm.NewFloatEngine(qf, nil); err == nil {
		t.Error("unknown factor function accepted")
	}
}

func TestCovarEngineFacade(t *testing.T) {
	rels := []fivm.RelationSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "S", Attrs: []string{"A", "C", "D"}},
	}
	eng, err := fivm.NewCovarEngine(rels, []string{"B", "D"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	p := eng.Payload()
	if p.Count() != 3 || p.Sum(0) != 4 || p.Sum(1) != 6 {
		t.Errorf("payload = %v", p)
	}
	if math.Abs(p.Prod(0, 1)-8) > 1e-12 {
		t.Errorf("Q(B,D) = %v", p.Prod(0, 1))
	}
	// Errors.
	if _, err := fivm.NewCovarEngine(rels, nil, nil); err == nil {
		t.Error("empty aggregate set accepted")
	}
	if _, err := fivm.NewCovarEngine(rels, []string{"Z"}, nil); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := fivm.NewCovarEngine(rels, []string{"B", "B"}, nil); err == nil {
		t.Error("duplicate attribute accepted")
	}
}

func TestAnalysisSnapshotRoundTrip(t *testing.T) {
	an, err := fivm.NewAnalysis(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if err := an.Apply([]view.Update{{Rel: "R", Tuple: value.T("a3", 7), Mult: 1}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := fivm.NewAnalysis(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !restored.Payload().Equal(an.Payload()) {
		t.Errorf("restored payload %v != original %v", restored.Payload(), an.Payload())
	}
	// Restored engines keep maintaining in lockstep.
	up := []view.Update{{Rel: "S", Tuple: value.T("a3", 9, 9), Mult: 1}}
	if err := an.Apply(up); err != nil {
		t.Fatal(err)
	}
	if err := restored.Apply(up); err != nil {
		t.Fatal(err)
	}
	if !restored.Payload().Equal(an.Payload()) {
		t.Error("restored engine diverged after further updates")
	}
}
