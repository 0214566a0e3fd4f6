package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"toc/internal/matrix"
)

// redundantMatrix generates a matrix with TOC-friendly structure: values
// drawn from a small pool and rows composed from a handful of shared
// segment templates, so pair sequences repeat across tuples.
func redundantMatrix(rng *rand.Rand, rows, cols int, sparsity float64, poolSize int) *matrix.Dense {
	pool := make([]float64, poolSize)
	for i := range pool {
		pool[i] = math.Round(rng.NormFloat64()*8) / 4
		if pool[i] == 0 {
			pool[i] = 0.25
		}
	}
	// A few row templates; each row perturbs one.
	nTemplates := 3
	templates := make([][]float64, nTemplates)
	for t := range templates {
		row := make([]float64, cols)
		for j := range row {
			if rng.Float64() < sparsity {
				row[j] = pool[rng.Intn(poolSize)]
			}
		}
		templates[t] = row
	}
	d := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		base := templates[rng.Intn(nTemplates)]
		row := d.Row(i)
		copy(row, base)
		// perturb a couple of positions
		for k := 0; k < 2 && cols > 0; k++ {
			j := rng.Intn(cols)
			if rng.Float64() < 0.5 {
				row[j] = 0
			} else {
				row[j] = pool[rng.Intn(poolSize)]
			}
		}
	}
	return d
}

var allVariants = []Variant{Full, SparseLogical}

func TestCompressDecodeLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][2]int{{1, 1}, {1, 10}, {10, 1}, {7, 13}, {50, 40}, {250, 68}}
	for _, v := range allVariants {
		for _, s := range shapes {
			a := redundantMatrix(rng, s[0], s[1], 0.4, 5)
			b := CompressVariant(a, v)
			if !b.Decode().Equal(a) {
				t.Fatalf("%v %v: decode mismatch", v, s)
			}
		}
	}
}

func TestCompressEdgeCases(t *testing.T) {
	for _, v := range allVariants {
		// all-zero matrix
		z := matrix.NewDense(5, 8)
		b := CompressVariant(z, v)
		if !b.Decode().Equal(z) {
			t.Fatalf("%v: all-zero decode mismatch", v)
		}
		if got := b.MulVec(make([]float64, 8)); len(got) != 5 {
			t.Fatalf("%v: all-zero MulVec length %d", v, len(got))
		}
		// empty matrix
		e := matrix.NewDense(0, 0)
		be := CompressVariant(e, v)
		if be.Rows() != 0 || be.Cols() != 0 {
			t.Fatalf("%v: empty dims wrong", v)
		}
		if !be.Decode().Equal(e) {
			t.Fatalf("%v: empty decode mismatch", v)
		}
		// single dense row
		r := matrix.NewDenseFromRows([][]float64{{1, 2, 3, 4, 5}})
		br := CompressVariant(r, v)
		if !br.Decode().Equal(r) {
			t.Fatalf("%v: single row decode mismatch", v)
		}
	}
}

// Pairs are keyed on the bits of their value, so the values == cannot
// key — NaN, which a float-keyed map stores and never finds again (Compress
// used to panic on one) — and the extremes of the format are ordinary
// values: every variant gives back the input's exact bits, in memory and
// through the image. Zeros of both signs are the one exception by design:
// the sparse encoding drops every v == 0, and a dropped cell decodes +0.
func TestCompressNonFiniteRoundTrip(t *testing.T) {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff0000000000abc) // signalling, negative, another payload
	denormal := math.SmallestNonzeroFloat64
	a := matrix.NewDenseFromRows([][]float64{
		{0, nanA, 1.5, math.Inf(1), 0, denormal},
		{nanB, nanA, 1.5, math.Inf(-1), 0, -denormal},
		{0, nanA, 1.5, math.Inf(1), math.MaxFloat64, denormal},
		{nanB, nanB, 0, math.Inf(-1), -math.MaxFloat64, 3 * denormal},
		{0, 0, 0, 0, 0, 0},
		{nanA, nanA, 1.5, math.Inf(1), math.MaxFloat64, denormal},
	})
	bitEqual := func(got *matrix.Dense) bool {
		return got.Rows() == a.Rows() && got.Cols() == a.Cols() && bitsEqual(got.Data(), a.Data())
	}
	for _, v := range allVariants {
		b := CompressVariant(a, v)
		if !bitEqual(b.Decode()) {
			t.Fatalf("%v: Decode() is not bit-equal to the input:\n%v", v, b.Decode())
		}
		back, err := Deserialize(b.Serialize())
		if err != nil {
			t.Fatalf("%v: Deserialize: %v", v, err)
		}
		if !bitEqual(back.Decode()) {
			t.Fatalf("%v: Decode() after Deserialize(Serialize()) is not bit-equal to the input", v)
		}
		if b.NumFirstLayer() != 12 {
			t.Fatalf("%v: |I| = %d, want 12 (each NaN payload is one pair per column)", v, b.NumFirstLayer())
		}
	}

	// The issue's reproducer, and the sign of zero.
	m := matrix.NewDense(2, 3)
	m.Set(0, 1, math.NaN())
	m.Set(1, 2, math.Copysign(0, -1))
	for _, v := range allVariants {
		got := CompressVariant(m, v).Decode()
		if math.Float64bits(got.At(0, 1)) != math.Float64bits(math.NaN()) {
			t.Fatalf("%v: NaN cell decodes to %v", v, got.At(0, 1))
		}
		if math.Float64bits(got.At(1, 2)) != 0 {
			t.Fatalf("%v: -0 cell decodes to bits %#x, want +0 (zeros are not stored)", v, math.Float64bits(got.At(1, 2)))
		}
	}
}

func TestOpsMatchDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(15)
		a := redundantMatrix(rng, rows, cols, 0.3+rng.Float64()*0.5, 2+rng.Intn(5))
		for _, variant := range allVariants {
			b := CompressVariant(a, variant)
			if !b.Decode().Equal(a) {
				return false
			}
			v := randVec(rng, cols)
			if !vecApproxEq(b.MulVec(v), a.MulVec(v)) {
				return false
			}
			u := randVec(rng, rows)
			if !vecApproxEq(b.VecMul(u), a.VecMul(u)) {
				return false
			}
			p := 1 + rng.Intn(4)
			m := matrix.NewDense(cols, p)
			fillRand(rng, m)
			if !b.MulMat(m).EqualApprox(a.MulMat(m), 1e-9) {
				return false
			}
			m2 := matrix.NewDense(p, rows)
			fillRand(rng, m2)
			if !b.MatMul(m2).EqualApprox(a.MatMul(m2), 1e-9) {
				return false
			}
			c := rng.NormFloat64()
			if !b.Scale(c).Decode().EqualApprox(a.Scale(c), 1e-9) {
				return false
			}
			if !b.Square().Decode().EqualApprox(a.MulElem(a), 1e-9) {
				return false
			}
			if !b.AddScalar(c).EqualApprox(a.AddScalar(c), 1e-9) {
				return false
			}
			m3 := matrix.NewDense(rows, cols)
			fillRand(rng, m3)
			if !b.AddDense(m3).EqualApprox(a.Add(m3), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func fillRand(rng *rand.Rand, m *matrix.Dense) {
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
}

func vecApproxEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// buildTree builds the batch's decode tree C' into memory of its own.
func (b *Batch) buildTree() *DecodeTree {
	return new(treeArena).build(b.i.len(), &b.d)
}

// The decode tree parent index is always smaller than the child index —
// the invariant that makes the one-pass forward/backward kernel scans
// correct. Verify it over random inputs.
func TestTreeTopologicalInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := redundantMatrix(rng, 1+rng.Intn(30), 1+rng.Intn(20), 0.5, 4)
		b := Compress(a)
		tree := b.buildTree()
		for i := 1; i < tree.Len(); i++ {
			if int(tree.Parent[i]) >= i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeRoundTripAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := redundantMatrix(rng, 40, 25, 0.45, 4)
	for _, v := range allVariants {
		b := CompressVariant(a, v)
		img := b.Serialize()
		if len(img) != b.CompressedSize() {
			t.Fatalf("%v: image %d bytes != CompressedSize %d", v, len(img), b.CompressedSize())
		}
		got, err := Deserialize(img)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got.Variant() != v || got.Rows() != 40 || got.Cols() != 25 {
			t.Fatalf("%v: header mismatch", v)
		}
		if !got.Decode().Equal(a) {
			t.Fatalf("%v: decode after round trip mismatch", v)
		}
		vec := randVec(rng, 25)
		if !vecApproxEq(got.MulVec(vec), a.MulVec(vec)) {
			t.Fatalf("%v: MulVec after round trip mismatch", v)
		}
	}
}

func TestDeserializeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := redundantMatrix(rng, 10, 8, 0.5, 3)
	img := Compress(a).Serialize()

	with := func(pos int, c byte) []byte {
		bad := append([]byte(nil), img...)
		bad[pos] = c
		return bad
	}
	for _, c := range []struct {
		name, want string
		img        []byte
	}{
		{"nil image", "too short", nil},
		{"truncated header", "too short", img[:5]},
		{"bad magic", "bad magic", with(0, 'X')},
		{"bad version", "unsupported version", with(4, 99)},
		{"bad variant", "unknown variant 7", with(5, 7)},
		// Variant 2 was the sparse encoding alone, which is formats' CSR
		// (TOC_SPARSE) now; an image of it written by an older build is
		// refused, not misread.
		{"sparse-only image", "unknown variant 2", corpusImage(t, "FuzzDeserialize/seed-sparse-only")},
	} {
		if _, err := Deserialize(c.img); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	for cut := headerSize; cut < len(img); cut += 7 {
		if _, err := Deserialize(img[:cut]); err == nil {
			t.Fatalf("truncation at %d should error", cut)
		}
	}
}

// Single-byte flips must never panic: either the image still parses (and
// decodes to some matrix) or Deserialize returns an error.
func TestDeserializeByteFlipsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := redundantMatrix(rng, 8, 6, 0.5, 3)
	img := Compress(a).Serialize()
	for pos := 0; pos < len(img); pos++ {
		for _, flip := range []byte{0x01, 0xFF} {
			bad := append([]byte(nil), img...)
			bad[pos] ^= flip
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic at byte %d flip %#x: %v", pos, flip, r)
					}
				}()
				b, err := Deserialize(bad)
				if err != nil {
					return
				}
				b.Decode()
			}()
		}
	}
}

func TestValidateRejectsForwardReference(t *testing.T) {
	// Hand-build an image whose D references a node that does not exist
	// yet at replay time: I = [p], D = [[2]] — node 2 was never created
	// (a single-element tuple creates nothing). The literal is only the
	// image writer's input, in the paper's numbering; no constructor
	// would make this batch.
	b := &Batch{rows: 1, cols: 2, variant: SparseLogical,
		i: splitI([]Pair{{0, 1}}),
		d: residentD{starts: []uint32{0, 1}},
	}
	if _, err := Deserialize(paperImage(b, []uint32{2})); err == nil {
		t.Fatal("forward node reference should be rejected")
	}
	// Node index 0 (the root) is never a valid code either.
	if _, err := Deserialize(paperImage(b, []uint32{0})); err == nil {
		t.Fatal("root code should be rejected")
	}
}

func TestCompressionRatioOrdering(t *testing.T) {
	// On redundant data the full pipeline must beat logical-only, which
	// must beat sparse-only — CSR, TOC_SPARSE's encoding: a 16-byte header,
	// the row starts and a u32 column and f64 value per nonzero; all must
	// beat DEN (ratio > 1).
	rng := rand.New(rand.NewSource(8))
	a := redundantMatrix(rng, 200, 60, 0.4, 4)
	full := CompressVariant(a, Full).CompressedSize()
	logical := CompressVariant(a, SparseLogical).CompressedSize()
	sparse := 16 + 4*(200+1) + 12*a.NNZ()
	den := 16 + 8*200*60
	if !(full < logical && logical < sparse && sparse < den) {
		t.Fatalf("size ordering violated: full=%d logical=%d sparse=%d den=%d",
			full, logical, sparse, den)
	}
}

func TestScaleSharesD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := redundantMatrix(rng, 30, 20, 0.5, 3)
	b := Compress(a)
	s := b.Scale(3)
	// Algorithm 3 touches only I; D must be shared, not copied.
	if len(s.d.narrow) == 0 || &s.d.narrow[0] != &b.d.narrow[0] || &s.d.starts[0] != &b.d.starts[0] {
		t.Fatal("Scale copied D; Algorithm 3 should only touch I")
	}
	if len(s.d.created) == 0 || &s.d.created[0] != &b.d.created[0] || s.d.live != b.d.live {
		t.Fatal("Scale did not share D's creation bitmap")
	}
	// and the original must be untouched
	if !b.Decode().Equal(a) {
		t.Fatal("Scale mutated the receiver")
	}
}

func TestDimMismatchPanics(t *testing.T) {
	b := Compress(matrix.NewDense(3, 4))
	cases := []func(){
		func() { b.MulVec(make([]float64, 3)) },
		func() { b.VecMul(make([]float64, 4)) },
		func() { b.MulMat(matrix.NewDense(3, 2)) },
		func() { b.MatMul(matrix.NewDense(2, 4)) },
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

func TestCompressionRatioValue(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := redundantMatrix(rng, 100, 50, 0.4, 3)
	b := Compress(a)
	want := float64(b.UncompressedSize()) / float64(b.CompressedSize())
	if got := b.CompressionRatio(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ratio = %v, want %v", got, want)
	}
	if b.UncompressedSize() != 16+8*100*50 {
		t.Fatalf("uncompressed size = %d", b.UncompressedSize())
	}
}

// Scale must keep the serialized image consistent: a scaled batch
// round-trips through Serialize/Deserialize with the scaled values.
func TestScaleSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := redundantMatrix(rng, 25, 12, 0.5, 3)
	for _, v := range allVariants {
		s := CompressVariant(a, v).Scale(3)
		got, err := Deserialize(s.Serialize())
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !got.Decode().EqualApprox(a.Scale(3), 1e-12) {
			t.Fatalf("%v: scaled round trip mismatch", v)
		}
	}
}

// Ops must be usable concurrently on the same batch (the scratch pool is
// shared process-wide).
func TestConcurrentOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := redundantMatrix(rng, 60, 30, 0.5, 4)
	b := Compress(a)
	v := randVec(rng, 30)
	want := a.MulVec(v)
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			ok := true
			for i := 0; i < 50; i++ {
				if !vecApproxEq(b.MulVec(v), want) {
					ok = false
					break
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent MulVec returned wrong results")
		}
	}
}
