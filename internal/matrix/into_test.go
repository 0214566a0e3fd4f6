package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameFloats is bit equality, with any NaN equal to any NaN (which
// payload a sum of two NaNs keeps is the instruction selector's choice).
func sameFloats(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return fmt.Errorf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// dirty returns a NaN-filled dst: a kernel that forgets to overwrite an
// element, or accumulates into what it found, shows.
func dirty(n int) []float64 {
	dst := make([]float64, n)
	for i := range dst {
		dst[i] = math.NaN()
	}
	return dst
}

// naiveMul is the reference A·B, a triple loop of its own that shares no
// code with the kernels: every element folds k ascending from +0 and
// skips a zero of A.
func naiveMul(a, b *Dense) []float64 {
	out := make([]float64, a.Rows()*b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			s := 0.0
			for k := 0; k < a.Cols(); k++ {
				if av := a.At(i, k); av != 0 {
					s += av * b.At(k, j)
				}
			}
			out[i*b.Cols()+j] = s
		}
	}
	return out
}

// The three Into kernels — the products NN.Grad makes, h·W, actsᵀ·delta
// and delta·Wᵀ — are bit-equal to naiveMul on the NN's own shapes, the
// degenerate ones, and operands where the a == 0 skip and the fold order
// are visible (zeros beside ±Inf, NaN, mixed signs), into a dirty dst.
func TestDenseIntoKernelsMatchTransposeForm(t *testing.T) {
	fills := map[string]func(rng *rand.Rand, d *Dense){
		"random": func(rng *rand.Rand, d *Dense) {
			for i := range d.data {
				d.data[i] = rng.NormFloat64()
			}
		},
		"zero-laden": func(rng *rand.Rand, d *Dense) {
			for i := range d.data {
				if rng.Intn(3) == 0 {
					d.data[i] = rng.NormFloat64()
				}
			}
		},
		"non-finite": func(rng *rand.Rand, d *Dense) {
			for i := range d.data {
				d.data[i] = []float64{0, math.Copysign(0, -1), 1.5, -2, math.Inf(1), math.Inf(-1), math.NaN(), 1e300}[rng.Intn(8)]
			}
		},
	}
	// A is n×k and B is k×p; the zero-row operands put a 0 in each place.
	shapes := [][3]int{{1, 1, 1}, {250, 200, 50}, {7, 3, 5}, {0, 3, 5}, {4, 0, 5}, {4, 3, 0}, {3, 2, 9}}
	for name, fill := range fills {
		for _, s := range shapes {
			n, k, p := s[0], s[1], s[2]
			rng := rand.New(rand.NewSource(int64(n + 31*k + 997*p)))
			a, b := NewDense(n, k), NewDense(k, p)
			fill(rng, a)
			fill(rng, b)
			at, bt := a.Transpose(), b.Transpose() // k×n, p×k
			label := fmt.Sprintf("%s %dx%d·%dx%d", name, n, k, k, p)

			want := naiveMul(a, b)
			dst := dirty(n * p)
			MulInto(dst, a, b)
			if err := sameFloats(dst, want); err != nil {
				t.Errorf("MulInto %s: %v", label, err)
			}
			dst = dirty(n * p)
			MulATBInto(dst, at, b)
			if err := sameFloats(dst, want); err != nil {
				t.Errorf("MulATBInto %s: %v", label, err)
			}
			dst = dirty(n * p)
			MulABTInto(dst, a, bt)
			if err := sameFloats(dst, want); err != nil {
				t.Errorf("MulABTInto %s: %v", label, err)
			}
			dst = dirty(n * k)
			a.TransposeInto(dst)
			if err := sameFloats(dst, at.data); err != nil {
				t.Errorf("TransposeInto %s: %v", label, err)
			}
		}
	}
}

func TestIntoKernelsRejectWrongShapes(t *testing.T) {
	a, b := NewDense(2, 3), NewDense(3, 4)
	for name, f := range map[string]func(){
		"MulInto inner":     func() { MulInto(make([]float64, 4), a, a) },
		"MulInto dst":       func() { MulInto(make([]float64, 7), a, b) },
		"MulATBInto inner":  func() { MulATBInto(make([]float64, 12), a, b) },
		"MulABTInto inner":  func() { MulABTInto(make([]float64, 6), a, b) },
		"MulABTInto dst":    func() { MulABTInto(make([]float64, 5), a, a) },
		"TransposeInto dst": func() { a.TransposeInto(make([]float64, 5)) },
		"Reshape negative":  func() { a.Reshape(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// Reshape keeps the storage while it fits and grows it when it does not.
func TestReshapeReusesStorage(t *testing.T) {
	var d Dense
	d.Reshape(4, 5)
	if d.Rows() != 4 || d.Cols() != 5 || len(d.Data()) != 20 {
		t.Fatalf("got %dx%d over %d values", d.Rows(), d.Cols(), len(d.Data()))
	}
	first := &d.Data()[0]
	if d.Reshape(2, 3); len(d.Data()) != 6 || &d.Data()[0] != first {
		t.Fatal("shrinking moved or mis-sized the storage")
	}
	if d.Reshape(5, 4); len(d.Data()) != 20 || &d.Data()[0] != first {
		t.Fatal("growing back within capacity moved or mis-sized the storage")
	}
	if d.Reshape(6, 6); len(d.Data()) != 36 || d.Rows() != 6 {
		t.Fatal("growing past capacity did not resize")
	}
}
