package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// buildSigmaFromRows constructs a SigmaMatrix directly from a dense
// data matrix (continuous columns), bypassing the ring machinery — used
// to test the solver in isolation.
func buildSigmaFromRows(rows [][]float64, names []string) *SigmaMatrix {
	n := len(names)
	m := &SigmaMatrix{n: n, Cols: make([]Column, n), Sum: make([]float64, n), Data: make([]float64, n*n)}
	for i, nm := range names {
		m.Cols[i] = Column{Attr: nm}
	}
	m.Count = float64(len(rows))
	for _, r := range rows {
		for i := 0; i < n; i++ {
			m.Sum[i] += r[i]
			for j := 0; j < n; j++ {
				m.Data[i*n+j] += r[i] * r[j]
			}
		}
	}
	return m
}

// linearFixture is an exact linear data set; the label is the last
// column.
type linearFixture struct {
	rows    [][]float64
	names   []string
	weights []float64 // per non-label column, in order
	bias    float64
}

// noiselessFixtures returns a two-feature and a one-feature data set.
func noiselessFixtures() map[string]linearFixture {
	rng := rand.New(rand.NewSource(1))
	var two [][]float64
	for i := 0; i < 500; i++ {
		x1 := rng.Float64()*10 - 5
		x2 := rng.Float64()*4 - 2
		two = append(two, []float64{x1, x2, 3 + 2*x1 - 1.5*x2})
	}
	rng = rand.New(rand.NewSource(2))
	var one [][]float64
	for i := 0; i < 200; i++ {
		x := rng.Float64()*2 - 1
		one = append(one, []float64{x, 1 + 0.5*x})
	}
	return map[string]linearFixture{
		"two_features": {two, []string{"x1", "x2", "y"}, []float64{2, -1.5}, 3},
		"one_feature":  {one, []string{"x", "y"}, []float64{0.5}, 1},
	}
}

func TestRidgeRecoversLinearModel(t *testing.T) {
	// Ridge with a tiny lambda must recover exact coefficients closely.
	for name, fx := range noiselessFixtures() {
		t.Run(name, func(t *testing.T) {
			sigma := buildSigmaFromRows(fx.rows, fx.names)
			label := len(fx.names) - 1
			model, err := FitRidge(sigma, label, RidgeConfig{Lambda: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range fx.weights {
				if math.Abs(model.Weights[i]-w) > 1e-6 {
					t.Errorf("θ%d = %v, want %v", i+1, model.Weights[i], w)
				}
			}
			if math.Abs(model.Intercept-fx.bias) > 1e-6 {
				t.Errorf("θ0 = %v, want %v", model.Intercept, fx.bias)
			}
			if rmse := model.TrainRMSE(sigma); rmse > 1e-6 {
				t.Errorf("RMSE = %v on noiseless data", rmse)
			}
		})
	}
}

// collinearRows is a noisy raw-scale data set whose one-hot columns
// c0..c2 sum to one (collinear with the intercept) next to a constant
// column k.
func collinearRows() ([][]float64, []string) {
	rng := rand.New(rand.NewSource(4))
	var rows [][]float64
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 100
		c := rng.Intn(3)
		oh := []float64{0, 0, 0}
		oh[c] = 1
		y := 5 + 0.3*x + []float64{3, 0, -2}[c] + rng.NormFloat64()
		rows = append(rows, []float64{x, oh[0], oh[1], oh[2], 7, y})
	}
	return rows, []string{"x", "c0", "c1", "c2", "k", "y"}
}

func TestRidgeCollinearOneHot(t *testing.T) {
	rows, names := collinearRows()
	sigma := buildSigmaFromRows(rows, names)
	const y = 5
	model, err := FitRidge(sigma, y, RidgeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Stationarity of the objective in raw space: with σ_i² the column
	// variance, every weight satisfies
	//   1/N (Σ_j Σ_ij θ_j + θ0 s_i − Σ_iy) + λ σ_i² θ_i = 0
	// and the intercept 1/N (N θ0 + Σ_j s_j θ_j − s_y) = 0.
	const lambda = 1e-3
	n, N := sigma.Dim(), sigma.Count
	check := func(what string, terms ...float64) {
		var sum, scale float64
		for _, v := range terms {
			sum += v
			scale += math.Abs(v)
		}
		if math.Abs(sum) > 1e-9*scale {
			t.Errorf("%s: residual %g exceeds 1e-9 of %g", what, sum, scale)
		}
	}
	bias := []float64{N * model.Intercept, -sigma.Sum[y]}
	for i := 0; i < n; i++ {
		if i == y {
			continue
		}
		bias = append(bias, sigma.Sum[i]*model.Weights[i])
		terms := []float64{model.Intercept * sigma.Sum[i], -sigma.At(i, y)}
		for j := 0; j < n; j++ {
			if j != y {
				terms = append(terms, sigma.At(i, j)*model.Weights[j])
			}
		}
		mu := sigma.Sum[i] / N
		terms = append(terms, N*lambda*(sigma.At(i, i)/N-mu*mu)*model.Weights[i])
		check("column "+names[i], terms...)
	}
	check("intercept", bias...)
	// The exact optimum is no worse than the gradient-descent solver it
	// replaced, which stopped at RMSE 0.908488141068296 on this data.
	if rmse := model.TrainRMSE(sigma); rmse > 0.908488141068296 {
		t.Errorf("RMSE = %.15g, above the iterative solver's 0.908488141068296", rmse)
	}
	if w := model.Weights[4]; math.Abs(w) > 1e-9 {
		t.Errorf("constant column weight = %v, want 0", w)
	}
}

func TestRidgeErrors(t *testing.T) {
	sigma := buildSigmaFromRows([][]float64{{1, 2}, {2, 3}}, []string{"x", "y"})
	empty := &SigmaMatrix{n: 2, Count: 0, Sum: make([]float64, 2), Data: make([]float64, 4)}
	overflow := buildSigmaFromRows([][]float64{{1e300, 2}, {-1e300, 3}}, []string{"x", "y"})
	for name, tc := range map[string]struct {
		m     *SigmaMatrix
		label int
		cfg   RidgeConfig
	}{
		"empty training set":   {empty, 1, RidgeConfig{}},
		"label out of range":   {sigma, 5, RidgeConfig{}},
		"negative lambda":      {sigma, 1, RidgeConfig{Lambda: -1}},
		"NaN lambda":           {sigma, 1, RidgeConfig{Lambda: math.NaN()}},
		"overflowing sums":     {overflow, 1, RidgeConfig{}},
		"infinite label stats": {buildSigmaFromRows([][]float64{{1, 1e300}, {2, -1e300}}, []string{"x", "y"}), 1, RidgeConfig{}},
	} {
		if m, err := FitRidge(tc.m, tc.label, tc.cfg); err == nil {
			t.Errorf("%s: accepted, model %+v", name, m)
		}
	}
}

func TestRidgePredict(t *testing.T) {
	m := &RidgeModel{Intercept: 1, Weights: []float64{2, 0}, LabelCol: 1}
	if got := m.Predict([]float64{3, 0}); got != 7 {
		t.Errorf("Predict = %v, want 7", got)
	}
}

func TestMutualInformationGroundTruths(t *testing.T) {
	k := func(vs ...any) string { return value.T(vs...).Encode() }

	// Perfectly dependent: X == Y over two symbols, 50/50.
	cx := ring.RelVal{k(0): 50, k(1): 50}
	cxy := ring.RelVal{k(0, 0): 50, k(1, 1): 50}
	mi := MutualInformation(100, cx, cx, cxy)
	if math.Abs(mi-math.Log(2)) > 1e-12 {
		t.Errorf("dependent MI = %v, want ln2 = %v", mi, math.Log(2))
	}

	// Independent: uniform product distribution.
	cxyInd := ring.RelVal{k(0, 0): 25, k(0, 1): 25, k(1, 0): 25, k(1, 1): 25}
	if mi := MutualInformation(100, cx, cx, cxyInd); math.Abs(mi) > 1e-12 {
		t.Errorf("independent MI = %v, want 0", mi)
	}

	// Empty database.
	if mi := MutualInformation(0, nil, nil, nil); mi != 0 {
		t.Errorf("empty MI = %v", mi)
	}

	// Entropy of a fair coin.
	if h := SelfInformation(100, cx); math.Abs(h-math.Log(2)) > 1e-12 {
		t.Errorf("H = %v, want ln2", h)
	}
	if h := SelfInformation(100, ring.RelVal{k(0): 100}); h != 0 {
		t.Errorf("deterministic H = %v, want 0", h)
	}
}

func TestMIMatrixFromRelCovar(t *testing.T) {
	// Two identical categorical attributes and one independent one,
	// built through the ring exactly as the view engine would.
	r := ring.NewRelCovarRing(3)
	lifts := []ring.Lift[*ring.RelCovar]{r.LiftCategorical(0), r.LiftCategorical(1), r.LiftCategorical(2)}
	rng := rand.New(rand.NewSource(4))
	total := r.Zero()
	for i := 0; i < 400; i++ {
		x := rng.Intn(2)
		z := rng.Intn(2) // independent of x
		p := r.Mul(r.Mul(lifts[0](value.Int(int64(x))), lifts[1](value.Int(int64(x)))), lifts[2](value.Int(int64(z))))
		total = r.Add(total, p)
	}
	feats := []Feature{
		{Name: "X", Categorical: true, Index: 0},
		{Name: "Y", Categorical: true, Index: 1},
		{Name: "Z", Categorical: true, Index: 2},
	}
	m, err := MIFromRelCovar(total, feats)
	if err != nil {
		t.Fatal(err)
	}
	ixy := m.At(0, 1)
	ixz := m.At(0, 2)
	if ixy < 0.5 { // ~ln2 ≈ 0.693 minus sampling noise
		t.Errorf("I(X,Y) = %v, want near ln2 (identical attrs)", ixy)
	}
	if ixz > 0.05 {
		t.Errorf("I(X,Z) = %v, want near 0 (independent)", ixz)
	}
	if m.At(0, 1) != m.At(1, 0) {
		t.Error("MI matrix not symmetric")
	}
	if m.At(0, 0) < ixy {
		t.Error("diagonal entropy below pairwise MI")
	}
	if m.IndexOf("Z") != 2 || m.IndexOf("W") != -1 {
		t.Error("IndexOf wrong")
	}
}

func TestMIFromRelCovarErrors(t *testing.T) {
	if _, err := MIFromRelCovar(nil, nil); err == nil {
		t.Error("nil payload accepted")
	}
	r := ring.NewRelCovarRing(1)
	if _, err := MIFromRelCovar(r.One(), []Feature{{Name: "x", Categorical: false, Index: 0}}); err == nil {
		t.Error("continuous feature accepted for MI")
	}
}

func TestSelectFeatures(t *testing.T) {
	m := &MIMatrix{
		Attrs: []string{"label", "a", "b", "c"},
		n:     4,
		Data: []float64{
			1.0, 0.5, 0.05, 0.3,
			0.5, 1.0, 0.1, 0.1,
			0.05, 0.1, 1.0, 0.1,
			0.3, 0.1, 0.1, 1.0,
		},
	}
	ranking, selected, err := SelectFeatures(m, "label", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != 3 || ranking[0].Attr != "a" || ranking[1].Attr != "c" || ranking[2].Attr != "b" {
		t.Errorf("ranking = %v", ranking)
	}
	if len(selected) != 2 || selected[0] != "a" || selected[1] != "c" {
		t.Errorf("selected = %v", selected)
	}
	if _, _, err := SelectFeatures(m, "missing", 0.2); err == nil {
		t.Error("missing label accepted")
	}
}

func TestChowLiuChainStructure(t *testing.T) {
	// MI matrix of a chain A—B—C—D with decaying dependence: the tree
	// must recover the chain.
	m := &MIMatrix{
		Attrs: []string{"A", "B", "C", "D"},
		n:     4,
		Data: []float64{
			2.0, 0.9, 0.4, 0.2,
			0.9, 2.0, 0.8, 0.35,
			0.4, 0.8, 2.0, 0.7,
			0.2, 0.35, 0.7, 2.0,
		},
	}
	tree, err := ChowLiu(m, "A")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != "A" || len(tree.Edges) != 3 {
		t.Fatalf("tree = %+v", tree)
	}
	want := map[string]string{"B": "A", "C": "B", "D": "C"}
	for _, e := range tree.Edges {
		if want[e.Child] != e.Parent {
			t.Errorf("edge %s -> %s, want parent %s", e.Parent, e.Child, want[e.Child])
		}
	}
	if math.Abs(tree.TotalMI-(0.9+0.8+0.7)) > 1e-12 {
		t.Errorf("TotalMI = %v", tree.TotalMI)
	}
	if kids := tree.Children("A"); len(kids) != 1 || kids[0] != "B" {
		t.Errorf("Children(A) = %v", kids)
	}
	s := tree.String()
	if s == "" {
		t.Error("empty rendering")
	}
}

func TestChowLiuSingleAttributeAndErrors(t *testing.T) {
	m := &MIMatrix{Attrs: []string{"only"}, n: 1, Data: []float64{1}}
	tree, err := ChowLiu(m, "only")
	if err != nil || len(tree.Edges) != 0 {
		t.Errorf("singleton tree = %+v, %v", tree, err)
	}
	if _, err := ChowLiu(m, "missing"); err == nil {
		t.Error("missing root accepted")
	}
}

func TestChowLiuDeterministicTieBreak(t *testing.T) {
	// All off-diagonal MI equal: edges must still come out
	// deterministically (by attribute name).
	m := &MIMatrix{
		Attrs: []string{"c", "a", "b"},
		n:     3,
		Data: []float64{
			1, 0.5, 0.5,
			0.5, 1, 0.5,
			0.5, 0.5, 1,
		},
	}
	t1, err := ChowLiu(m, "c")
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := ChowLiu(m, "c")
	for i := range t1.Edges {
		if t1.Edges[i] != t2.Edges[i] {
			t.Fatalf("non-deterministic: %v vs %v", t1.Edges, t2.Edges)
		}
	}
}
