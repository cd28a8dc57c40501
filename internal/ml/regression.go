package ml

import (
	"fmt"
	"math"
)

// RidgeModel is a ridge linear regression model over the expanded
// feature columns of a SigmaMatrix, with an explicit intercept.
type RidgeModel struct {
	// Intercept is θ0.
	Intercept float64
	// Weights holds one θ per feature column (the label's column weight
	// is unused and kept at zero).
	Weights []float64
	// LabelCol is the column index of the label in the SigmaMatrix.
	LabelCol int
}

// RidgeConfig configures the ridge solver.
type RidgeConfig struct {
	// Lambda is the L2 regularization strength on the standardized
	// weights (the intercept is not penalized). The zero value means
	// 1e-3; it must not be negative or NaN.
	Lambda float64
}

// Validate rejects a regularization strength the solver cannot use.
func (c RidgeConfig) Validate() error {
	if c.Lambda < 0 || math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0) {
		return fmt.Errorf("ml: ridge lambda %v must be finite and non-negative", c.Lambda)
	}
	return nil
}

// FitRidge solves the ridge objective over standardized columns
//
//	J(θ') = 1/(2N) Σ (θ'ᵀx' − y')² + λ/2 ‖θ'‖²,  x'_i = (x_i − μ_i)/σ_i
//
// exactly, using only the COVAR statistics in m — the training data
// itself is never materialized, which is the paper's central point.
// The standardized Gram matrix is the correlation matrix
//
//	C_ij = (Σ_ij − N μ_i μ_j) / (N σ_i σ_j)
//
// so θ' solves (C_xx + λI) θ' = C_xy, factored once by Cholesky. The
// result is mapped back to raw space with an unpenalized intercept
// θ0 = μ_y − Σ θ_i μ_i. Constant columns keep σ = 1 (their centered
// values are zero, so their weights are zero). The fit is a function of
// m alone: identical statistics always give identical weights.
func FitRidge(m *SigmaMatrix, labelCol int, cfg RidgeConfig) (*RidgeModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lambda := cfg.Lambda
	if lambda == 0 {
		lambda = 1e-3
	}
	if !(m.Count > 0) {
		return nil, fmt.Errorf("ml: cannot fit on an empty training set")
	}
	n := m.Dim()
	if labelCol < 0 || labelCol >= n {
		return nil, fmt.Errorf("ml: label column %d out of range", labelCol)
	}
	mu := make([]float64, n)
	sd := make([]float64, n)
	for i := 0; i < n; i++ {
		mu[i] = m.Sum[i] / m.Count
		sd[i] = 1
		if v := m.At(i, i)/m.Count - mu[i]*mu[i]; v > 1e-12 {
			sd[i] = math.Sqrt(v)
		}
	}
	corr := func(i, j int) float64 {
		return (m.At(i, j) - m.Count*mu[i]*mu[j]) / (m.Count * sd[i] * sd[j])
	}
	// cols maps solver rows to the non-label columns of m.
	cols := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != labelCol {
			cols = append(cols, i)
		}
	}
	k := len(cols)
	a := make([]float64, k*k) // lower triangle, factored in place into L
	b := make([]float64, k)
	for r, i := range cols {
		for c, j := range cols[:r+1] {
			a[r*k+c] = corr(i, j)
		}
		a[r*k+r] += lambda
		b[r] = corr(i, labelCol)
	}
	for j := 0; j < k; j++ {
		d := a[j*k+j]
		for p := 0; p < j; p++ {
			d -= a[j*k+p] * a[j*k+p]
		}
		if !(d > 0) {
			return nil, fmt.Errorf("ml: ridge system is not positive definite at column %s (pivot %v)", m.Cols[cols[j]].Label(), d)
		}
		d = math.Sqrt(d)
		a[j*k+j] = d
		for r := j + 1; r < k; r++ {
			s := a[r*k+j]
			for p := 0; p < j; p++ {
				s -= a[r*k+p] * a[j*k+p]
			}
			a[r*k+j] = s / d
		}
	}
	// Forward (L z = b) then backward (Lᵀ θ' = z) substitution, in b.
	for r := 0; r < k; r++ {
		for p := 0; p < r; p++ {
			b[r] -= a[r*k+p] * b[p]
		}
		b[r] /= a[r*k+r]
	}
	for r := k - 1; r >= 0; r-- {
		for p := r + 1; p < k; p++ {
			b[r] -= a[p*k+r] * b[p]
		}
		b[r] /= a[r*k+r]
	}
	model := &RidgeModel{Weights: make([]float64, n), LabelCol: labelCol, Intercept: mu[labelCol]}
	for r, i := range cols {
		w := b[r] * sd[labelCol] / sd[i]
		model.Weights[i] = w
		model.Intercept -= w * mu[i]
	}
	for _, w := range append([]float64{model.Intercept}, model.Weights...) {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("ml: ridge fit is not finite (overflowing sigma statistics?)")
		}
	}
	return model, nil
}

// Predict evaluates the model on an expanded feature vector x (the
// label column's entry is ignored).
func (r *RidgeModel) Predict(x []float64) float64 {
	out := r.Intercept
	for i, w := range r.Weights {
		if i != r.LabelCol {
			out += w * x[i]
		}
	}
	return out
}

// TrainRMSE computes the root-mean-squared training error from the
// sigma statistics alone:
//
//	MSE = 1/N (θᵀΣθ + 2θ0 θᵀs + Nθ0² − 2θᵀΣ_y − 2θ0 s_y + Σ_yy)
func (r *RidgeModel) TrainRMSE(m *SigmaMatrix) float64 {
	n := m.Dim()
	y := r.LabelCol
	var quad, lin float64
	for i := 0; i < n; i++ {
		if i == y {
			continue
		}
		wi := r.Weights[i]
		for j := 0; j < n; j++ {
			if j == y {
				continue
			}
			quad += wi * r.Weights[j] * m.At(i, j)
		}
		lin += wi * (r.Intercept*m.Sum[i] - m.At(i, y))
	}
	mse := (quad + 2*lin + m.Count*r.Intercept*r.Intercept - 2*r.Intercept*m.Sum[y] + m.At(y, y)) / m.Count
	if mse < 0 {
		mse = 0 // numeric noise near a perfect fit
	}
	return math.Sqrt(mse)
}
