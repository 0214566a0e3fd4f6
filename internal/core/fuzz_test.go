package core

import (
	"testing"

	"toc/internal/matrix"
)

// FuzzDeserialize drives adversarial byte images through the physical
// decoder. The contract under fuzz: Deserialize either returns an error
// or returns a Batch whose decode and kernels are safe to execute —
// never a panic, never an out-of-bounds access, regardless of input.
// Seed corpus lives in testdata/fuzz/FuzzDeserialize; CI runs a short
// -fuzz pass over it on every push.
func FuzzDeserialize(f *testing.F) {
	// Valid images of every variant, plus structured corruption, seed
	// the mutator with the real wire layout.
	dense := matrix.NewDense(4, 6)
	for r := 0; r < 4; r++ {
		for c := 0; c < 6; c++ {
			if (r+c)%3 != 0 {
				dense.Set(r, c, float64(r*7+c)/3)
			}
		}
	}
	for _, v := range []Variant{Full, SparseLogical, SparseOnly} {
		f.Add(CompressVariant(dense, v).Serialize())
	}
	good := Compress(dense).Serialize()
	trunc := append([]byte(nil), good[:len(good)/2]...)
	f.Add(trunc)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("TOCB"))

	f.Fuzz(func(t *testing.T, img []byte) {
		b, err := Deserialize(img)
		if err != nil {
			return
		}
		rows, cols := b.Rows(), b.Cols()
		if rows < 0 || cols < 0 {
			t.Fatalf("accepted image with negative dims %dx%d", rows, cols)
		}
		// Header dims are bounded but their product can still be huge;
		// skip kernel execution (not validation) for shapes whose dense
		// buffers would dominate the fuzz worker's memory.
		if int64(rows)*int64(cols) > 1<<20 {
			return
		}
		d := b.Decode()
		if d.Rows() != rows || d.Cols() != cols {
			t.Fatalf("decode shape %dx%d, header says %dx%d", d.Rows(), d.Cols(), rows, cols)
		}
		// The kernels must walk any accepted structure without panicking.
		v := make([]float64, cols)
		for i := range v {
			v[i] = float64(i%5) - 2
		}
		_ = b.MulVec(v)
		u := make([]float64, rows)
		for i := range u {
			u[i] = float64(i%3) - 1
		}
		_ = b.VecMul(u)
		// So must a plan: its tree is built from the same (I, D), and the
		// kernels gather through KeyIdx and Parent without further checks
		// of their own.
		plan := b.NewKernelPlan()
		_ = plan.MulVecInto(nil, v, 2)
		_ = plan.VecMulInto(nil, u, 2)
		plan.Release()
		// A batch that deserialized must reserialize to a decodable image.
		if _, err := Deserialize(b.Serialize()); err != nil {
			t.Fatalf("accepted batch does not reserialize: %v", err)
		}
	})
}
