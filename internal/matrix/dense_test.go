package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, rows, cols int, sparsity float64) *Dense {
	d := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < sparsity {
				d.Set(i, j, math.Round(rng.NormFloat64()*100)/100)
			}
		}
	}
	return d
}

func TestNewDenseShape(t *testing.T) {
	d := NewDense(3, 4)
	if d.Rows() != 3 || d.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", d.Rows(), d.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if d.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(1, 2, 7.5)
	if got := d.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := d.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestNewDenseFromRows(t *testing.T) {
	d := NewDenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if d.Rows() != 3 || d.Cols() != 2 {
		t.Fatalf("shape %dx%d, want 3x2", d.Rows(), d.Cols())
	}
	if d.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", d.At(2, 1))
	}
}

func TestNewDenseFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewDenseFromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIndependence(t *testing.T) {
	d := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	c := d.Clone()
	c.Set(0, 0, 99)
	if d.At(0, 0) != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestSliceRows(t *testing.T) {
	d := NewDenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	s := d.SliceRows(1, 3)
	want := NewDenseFromRows([][]float64{{3, 4}, {5, 6}})
	if !s.Equal(want) {
		t.Fatalf("SliceRows = %v, want %v", s, want)
	}
	// copies, not aliases
	s.Set(0, 0, -1)
	if d.At(1, 0) != 3 {
		t.Fatal("SliceRows aliases original")
	}
}

func TestViewRows(t *testing.T) {
	d := NewDenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	v := d.ViewRows(1, 3)
	if !v.Equal(NewDenseFromRows([][]float64{{3, 4}, {5, 6}})) {
		t.Fatalf("ViewRows = %v", v)
	}
	// aliases, both ways
	v.Set(0, 0, -1)
	d.Set(2, 1, -2)
	if d.At(1, 0) != -1 || v.At(1, 1) != -2 {
		t.Fatal("ViewRows does not alias the original")
	}
	// a Reshape that outgrows the view leaves the rows after it alone
	v.Reshape(3, 2)
	for j := range v.Data() {
		v.Data()[j] = 9
	}
	if d.At(3, 0) != 7 || d.At(3, 1) != 8 {
		t.Fatal("a Reshape of the view wrote past its last row")
	}
}

func TestNNZAndSparsity(t *testing.T) {
	d := NewDenseFromRows([][]float64{{1, 0}, {0, 2}})
	if d.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", d.NNZ())
	}
	if d.Sparsity() != 0.5 {
		t.Fatalf("Sparsity = %v, want 0.5", d.Sparsity())
	}
	if NewDense(0, 0).Sparsity() != 0 {
		t.Fatal("empty matrix sparsity should be 0")
	}
}

func TestTranspose(t *testing.T) {
	d := NewDenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := d.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if d.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{1, -1})
	want := []float64{-1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestVecMul(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	got := a.VecMul([]float64{1, -1})
	want := []float64{-2, -2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VecMul = %v, want %v", got, want)
		}
	}
}

func TestMulMat(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	m := NewDenseFromRows([][]float64{{1, 0}, {0, 1}})
	if !a.MulMat(m).Equal(a) {
		t.Fatal("A·I != A")
	}
	m2 := NewDenseFromRows([][]float64{{2}, {3}})
	got := a.MulMat(m2)
	want := NewDenseFromRows([][]float64{{8}, {18}})
	if !got.Equal(want) {
		t.Fatalf("MulMat = %v, want %v", got, want)
	}
}

func TestMatMul(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	m := NewDenseFromRows([][]float64{{1, 1}})
	got := m.Clone() // keep m
	_ = got
	r := a.MatMul(m)
	want := NewDenseFromRows([][]float64{{4, 6}})
	if !r.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", r, want)
	}
}

// MulMat against MatMul via transpose identity: (M·A)ᵀ = Aᵀ·Mᵀ.
func TestMulTransposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 9, 5, 0.6)
	m := randDense(rng, 3, 9, 0.9)
	left := a.MatMul(m).Transpose()
	right := a.Transpose().MulMat(m.Transpose())
	if !left.EqualApprox(right, 1e-12) {
		t.Fatal("(M·A)ᵀ != Aᵀ·Mᵀ")
	}
}

func TestScaleAndAddScalar(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 0}, {0, 2}})
	s := a.Scale(3)
	if s.At(0, 0) != 3 || s.At(1, 1) != 6 || s.At(0, 1) != 0 {
		t.Fatalf("Scale wrong: %v", s)
	}
	p := a.AddScalar(1)
	if p.At(0, 1) != 1 || p.At(0, 0) != 2 {
		t.Fatalf("AddScalar wrong: %v", p)
	}
	// originals untouched
	if a.At(0, 0) != 1 {
		t.Fatal("Scale mutated receiver")
	}
}

func TestAdd(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}})
	b := NewDenseFromRows([][]float64{{3, 5}})
	if got := a.Add(b); got.At(0, 0) != 4 || got.At(0, 1) != 7 {
		t.Fatalf("Add = %v", got)
	}
}

func TestApply(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 4}, {9, 16}})
	a.ApplyInPlace(math.Sqrt)
	want := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	if !a.EqualApprox(want, 1e-12) {
		t.Fatalf("ApplyInPlace = %v", a)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {3, 7}, {50, 20}} {
		d := randDense(rng, shape[0], shape[1], 0.5)
		got, err := DeserializeDense(d.Serialize())
		if err != nil {
			t.Fatalf("round trip %v: %v", shape, err)
		}
		if !got.Equal(d) {
			t.Fatalf("round trip %v: mismatch", shape)
		}
	}
}

func TestDeserializeErrors(t *testing.T) {
	if _, err := DeserializeDense(nil); err == nil {
		t.Fatal("nil image should error")
	}
	if _, err := DeserializeDense(make([]byte, 10)); err == nil {
		t.Fatal("short image should error")
	}
	d := NewDense(2, 2)
	img := d.Serialize()
	if _, err := DeserializeDense(img[:len(img)-1]); err == nil {
		t.Fatal("truncated image should error")
	}
}

// Property: MulVec matches a scalar re-implementation.
func TestMulVecProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		a := randDense(rng, rows, cols, 0.7)
		v := make([]float64, cols)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		got := a.MulVec(v)
		for i := 0; i < rows; i++ {
			var s float64
			for j := 0; j < cols; j++ {
				s += a.At(i, j) * v[j]
			}
			if math.Abs(s-got[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: VecMul(v) == Transpose().MulVec(v).
func TestVecMulProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		a := randDense(rng, rows, cols, 0.7)
		v := make([]float64, rows)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		got := a.VecMul(v)
		want := a.Transpose().MulVec(v)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	a := NewDense(2, 3)
	cases := []func(){
		func() { a.MulVec(make([]float64, 2)) },
		func() { a.VecMul(make([]float64, 3)) },
		func() { a.MulMat(NewDense(2, 2)) },
		func() { a.MatMul(NewDense(2, 3)) },
		func() { a.Add(NewDense(3, 2)) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			c()
		}()
	}
}
