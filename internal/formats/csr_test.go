package formats

import (
	"math"
	"math/rand"
	"testing"

	"toc/internal/matrix"
	"toc/internal/testutil"
)

// The textbook CSR loops: one pass over the non-zeros per product, every
// output element folded from +0 in nonzero order. They are the oracle of
// CSR's plan, whose kernels must return exactly their bits.

func oracleMulVec(e *CSR, v []float64) []float64 {
	r := make([]float64, e.rows)
	for i := 0; i < e.rows; i++ {
		var s float64
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			s += e.vals[k] * v[e.colIdx[k]]
		}
		r[i] = s
	}
	return r
}

func oracleVecMul(e *CSR, v []float64) []float64 {
	r := make([]float64, e.cols)
	for i := 0; i < e.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			r[e.colIdx[k]] += vi * e.vals[k]
		}
	}
	return r
}

func oracleMulMat(e *CSR, m *matrix.Dense) *matrix.Dense {
	r := matrix.NewDense(e.rows, m.Cols())
	for i := 0; i < e.rows; i++ {
		ri := r.Row(i)
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			val := e.vals[k]
			mrow := m.Row(int(e.colIdx[k]))
			for j, mv := range mrow {
				ri[j] += val * mv
			}
		}
	}
	return r
}

func oracleMatMul(e *CSR, m *matrix.Dense) *matrix.Dense {
	p := m.Rows()
	r := matrix.NewDense(p, e.cols)
	for i := 0; i < e.rows; i++ {
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			col := int(e.colIdx[k])
			val := e.vals[k]
			for row := 0; row < p; row++ {
				r.Set(row, col, r.At(row, col)+m.At(row, i)*val)
			}
		}
	}
	return r
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func randDense(rng *rand.Rand, rows, cols int) *matrix.Dense {
	m := matrix.NewDense(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

// dirty fills a caller-owned destination with NaN, so a kernel that
// forgets to zero or overwrite an element shows it.
func dirty(d []float64) []float64 {
	for i := range d {
		d[i] = math.NaN()
	}
	return d
}

// Every kernel of CSR's plan (under both names it is registered as)
// returns the textbook loop's bits, for a nil and a dirty dst, at every
// worker count and operand width, on batches with empty rows, a 1-row
// batch and an all-zero one.
func TestCSRPlanBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	withEmpty := redundantMatrix(rng, 37, 13, 0.4, 4)
	for _, i := range []int{0, 5, 6, 36} {
		clear(withEmpty.Row(i))
	}
	batches := map[string]*matrix.Dense{
		"redundant":  redundantMatrix(rng, 60, 25, 0.3, 5),
		"empty rows": withEmpty,
		"one row":    redundantMatrix(rng, 1, 9, 0.6, 3),
		"all zero":   matrix.NewDense(8, 5),
	}
	for bname, a := range batches {
		for _, method := range []string{"CSR", "TOC_SPARSE"} {
			e := MustGetCodec(method).Encode(a).(*CSR)
			plan := e.NewKernelPlan()
			rows, cols := e.Rows(), e.Cols()
			u := make([]float64, rows)
			for i := range u {
				if i%3 != 1 { // zero weights take VecMul's skip
					u[i] = rng.NormFloat64()
				}
			}
			vecs := map[string][2][]float64{
				"random": {randDense(rng, 1, cols).Data(), u},
				"zero":   {make([]float64, cols), make([]float64, rows)},
			}
			for vname, vs := range vecs {
				want := oracleMulVec(e, vs[0])
				for _, dst := range [][]float64{nil, dirty(make([]float64, rows))} {
					if got := plan.MulVecInto(dst, vs[0], 1); !bitsEqual(got, want) {
						t.Errorf("%s %s %s vector: MulVecInto differs from the oracle", method, bname, vname)
					}
				}
				want = oracleVecMul(e, vs[1])
				for _, dst := range [][]float64{nil, dirty(make([]float64, cols))} {
					if got := plan.VecMulInto(dst, vs[1], 1); !bitsEqual(got, want) {
						t.Errorf("%s %s %s vector: VecMulInto differs from the oracle", method, bname, vname)
					}
				}
			}
			for _, p := range []int{1, 3, 40} {
				mr, ml := randDense(rng, cols, p), randDense(rng, p, rows)
				wantR, wantL := oracleMulMat(e, mr), oracleMatMul(e, ml)
				for _, w := range []int{0, 1, 2, 7, 16} {
					dstR := matrix.NewDense(rows, p)
					dstL := matrix.NewDense(p, cols)
					dirty(dstR.Data())
					dirty(dstL.Data())
					for _, got := range []*matrix.Dense{plan.MulMatInto(nil, mr, w), plan.MulMatInto(dstR, mr, w)} {
						if !bitsEqual(got.Data(), wantR.Data()) {
							t.Errorf("%s %s p=%d workers=%d: MulMatInto differs from the oracle", method, bname, p, w)
						}
					}
					for _, got := range []*matrix.Dense{plan.MatMulInto(nil, ml, w), plan.MatMulInto(dstL, ml, w)} {
						if !bitsEqual(got.Data(), wantL.Data()) {
							t.Errorf("%s %s p=%d workers=%d: MatMulInto differs from the oracle", method, bname, p, w)
						}
					}
				}
			}
			plan.Release()
		}
	}
}

// Planning a CSR batch and running its four kernels into caller-owned
// buffers allocates nothing at workers 1: the plan is the batch itself.
func TestCSRPlanAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(42))
	e := MustGetCodec("CSR").Encode(redundantMatrix(rng, 64, 16, 0.4, 4)).(*CSR)
	v, u := make([]float64, 16), make([]float64, 64)
	mr, ml := randDense(rng, 16, 8), randDense(rng, 8, 64)
	rv, ru := make([]float64, 64), make([]float64, 16)
	rr, rl := matrix.NewDense(64, 8), matrix.NewDense(8, 16)
	if n := testing.AllocsPerRun(20, func() {
		plan := e.NewKernelPlan()
		plan.MulVecInto(rv, v, 1)
		plan.VecMulInto(ru, u, 1)
		plan.MulMatInto(rr, mr, 1)
		plan.MatMulInto(rl, ml, 1)
		plan.Release()
	}); n != 0 {
		t.Fatalf("CSR plan and four kernels into dst: %.1f allocations, want 0", n)
	}
}
