package cla

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"toc/internal/matrix"
)

func redundantMatrix(rng *rand.Rand, rows, cols int, sparsity float64, poolSize int) *matrix.Dense {
	pool := make([]float64, poolSize)
	for i := range pool {
		pool[i] = math.Round(rng.NormFloat64()*8) / 4
		if pool[i] == 0 {
			pool[i] = 0.25
		}
	}
	d := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < sparsity {
				d.Set(i, j, pool[rng.Intn(poolSize)])
			}
		}
	}
	return d
}

func TestDecodeLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]int{{1, 1}, {5, 3}, {30, 12}, {100, 20}, {250, 8}}
	for _, s := range shapes {
		a := redundantMatrix(rng, s[0], s[1], 0.4, 4)
		m := Compress(a)
		if !m.Decode().Equal(a) {
			t.Fatalf("shape %v: decode mismatch (kinds %v)", s, m.GroupKinds())
		}
	}
}

func TestDecodeAllZeroAndEmpty(t *testing.T) {
	z := matrix.NewDense(8, 5)
	m := Compress(z)
	if !m.Decode().Equal(z) {
		t.Fatal("all-zero decode mismatch")
	}
	e := matrix.NewDense(0, 0)
	me := Compress(e)
	if me.Rows() != 0 || me.Cols() != 0 || !me.Decode().Equal(e) {
		t.Fatal("empty matrix mishandled")
	}
	// zero columns with rows
	zc := matrix.NewDense(4, 0)
	mzc := Compress(zc)
	if mzc.Rows() != 4 || mzc.Cols() != 0 || !mzc.Decode().Equal(zc) {
		t.Fatal("zero-column matrix mishandled")
	}
}

func TestOpsMatchDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(12)
		a := redundantMatrix(rng, rows, cols, 0.2+rng.Float64()*0.6, 2+rng.Intn(4))
		m := Compress(a)
		if !m.Decode().Equal(a) {
			return false
		}
		v := make([]float64, cols)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		gv, wv := m.MulVecInto(nil, v), a.MulVec(v)
		for i := range wv {
			if math.Abs(gv[i]-wv[i]) > 1e-9 {
				return false
			}
		}
		u := make([]float64, rows)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		gu, wu := m.VecMulInto(nil, u), a.VecMul(u)
		for i := range wu {
			if math.Abs(gu[i]-wu[i]) > 1e-9 {
				return false
			}
		}
		p := 1 + rng.Intn(3)
		mr := matrix.NewDense(cols, p)
		for i := 0; i < cols; i++ {
			for j := 0; j < p; j++ {
				mr.Set(i, j, rng.NormFloat64())
			}
		}
		if !m.MulMatInto(nil, mr).EqualApprox(a.MulMat(mr), 1e-9) {
			return false
		}
		ml := matrix.NewDense(p, rows)
		for i := 0; i < p; i++ {
			for j := 0; j < rows; j++ {
				ml.Set(i, j, rng.NormFloat64())
			}
		}
		if !m.MatMulInto(nil, ml).EqualApprox(a.MatMul(ml), 1e-9) {
			return false
		}
		c := rng.NormFloat64()
		if !m.Scale(c).Decode().EqualApprox(a.Scale(c), 1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCoCodingMergesIdenticalColumns(t *testing.T) {
	// Columns that always move together should co-code into one group.
	rows := 100
	d := matrix.NewDense(rows, 4)
	for i := 0; i < rows; i++ {
		v := float64(i % 3)
		d.Set(i, 0, v)
		d.Set(i, 1, v*2)
		d.Set(i, 2, v*3)
		d.Set(i, 3, v*4)
	}
	m := Compress(d)
	if m.NumGroups() != 1 {
		t.Fatalf("identical-structure columns split into %d groups (%v)", m.NumGroups(), m.GroupKinds())
	}
	if !m.Decode().Equal(d) {
		t.Fatal("decode mismatch")
	}
}

func TestRLEChosenForRunStructure(t *testing.T) {
	// Long runs of one repeated tuple favour RLE.
	rows := 200
	d := matrix.NewDense(rows, 1)
	for i := 0; i < rows; i++ {
		if i < 100 {
			d.Set(i, 0, 7)
		} else if i < 150 {
			d.Set(i, 0, 9)
		}
		// rest zero
	}
	m := Compress(d)
	kinds := m.GroupKinds()
	if len(kinds) != 1 || kinds[0] != "RLE" {
		t.Fatalf("expected RLE for run-structured column, got %v", kinds)
	}
	if !m.Decode().Equal(d) {
		t.Fatal("decode mismatch")
	}
}

func TestUCChosenForIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := 64
	d := matrix.NewDense(rows, 1)
	for i := 0; i < rows; i++ {
		d.Set(i, 0, rng.NormFloat64()) // all distinct
	}
	m := Compress(d)
	kinds := m.GroupKinds()
	if len(kinds) != 1 || kinds[0] != "UC" {
		t.Fatalf("expected UC for incompressible column, got %v", kinds)
	}
	if !m.Decode().Equal(d) {
		t.Fatal("decode mismatch")
	}
}

func TestCompressionBeatsDenseOnRedundantData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := redundantMatrix(rng, 250, 30, 0.4, 3)
	m := Compress(a)
	den := 16 + 8*250*30
	if m.CompressedSize() >= den {
		t.Fatalf("CLA size %d >= DEN %d on redundant data", m.CompressedSize(), den)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	m := Compress(matrix.NewDense(3, 4))
	cases := []func(){
		func() { m.MulVecInto(nil, make([]float64, 3)) },
		func() { m.VecMulInto(nil, make([]float64, 4)) },
		func() { m.MulMatInto(nil, matrix.NewDense(3, 2)) },
		func() { m.MatMulInto(nil, matrix.NewDense(2, 2)) },
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
