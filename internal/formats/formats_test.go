package formats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"toc/internal/core"
	"toc/internal/data"
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
	templates := make([][]float64, 3)
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
		copy(d.Row(i), templates[rng.Intn(len(templates))])
		if cols > 0 {
			j := rng.Intn(cols)
			d.Set(i, j, pool[rng.Intn(poolSize)])
		}
	}
	return d
}

func TestRegistryHasPaperMethods(t *testing.T) {
	for _, name := range PaperMethods() {
		if _, ok := Get(name); !ok {
			t.Errorf("method %q not registered", name)
		}
	}
	for _, name := range []string{"TOC_SPARSE", "TOC_SPARSE_AND_LOGICAL", "TOC_FULL"} {
		if _, ok := Get(name); !ok {
			t.Errorf("ablation variant %q not registered", name)
		}
	}
	if _, ok := Get("NOPE"); ok {
		t.Error("unknown method should not resolve")
	}
}

func TestMustGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGet("NOPE")
}

func TestAllMethodsLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := redundantMatrix(rng, 60, 25, 0.4, 4)
	for _, name := range Names() {
		enc := MustGet(name)
		c := enc(a)
		if c.Rows() != 60 || c.Cols() != 25 {
			t.Errorf("%s: dims %dx%d", name, c.Rows(), c.Cols())
		}
		if !c.Decode().Equal(a) {
			t.Errorf("%s: decode mismatch", name)
		}
		if c.CompressedSize() <= 0 {
			t.Errorf("%s: non-positive size", name)
		}
	}
}

// Every method must produce identical results for every op.
func TestAllMethodsOpsMatchDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(25)
		cols := 1 + rng.Intn(15)
		a := redundantMatrix(rng, rows, cols, 0.2+rng.Float64()*0.6, 3)
		v := make([]float64, cols)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		u := make([]float64, rows)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		p := 1 + rng.Intn(3)
		mr := matrix.NewDense(cols, p)
		ml := matrix.NewDense(p, rows)
		for i := 0; i < cols; i++ {
			for j := 0; j < p; j++ {
				mr.Set(i, j, rng.NormFloat64())
			}
		}
		for i := 0; i < p; i++ {
			for j := 0; j < rows; j++ {
				ml.Set(i, j, rng.NormFloat64())
			}
		}
		wantMulVec := a.MulVec(v)
		wantVecMul := a.VecMul(u)
		wantMulMat := a.MulMat(mr)
		wantMatMul := a.MatMul(ml)
		scale := rng.NormFloat64()
		wantScale := a.Scale(scale)

		for _, name := range Names() {
			c := MustGet(name)(a)
			if !vecEq(c.MulVec(v), wantMulVec) {
				return false
			}
			if !vecEq(c.VecMul(u), wantVecMul) {
				return false
			}
			if !c.MulMat(mr).EqualApprox(wantMulMat, 1e-9) {
				return false
			}
			if !c.MatMul(ml).EqualApprox(wantMatMul, 1e-9) {
				return false
			}
			if !c.Scale(scale).Decode().EqualApprox(wantScale, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func vecEq(a, b []float64) bool {
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

// On moderately sparse, redundant data the paper's Figure 5 ordering must
// hold: TOC beats CSR and CSR beats DEN; the GC schemes also beat DEN.
func TestCompressionRatioShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := redundantMatrix(rng, 250, 60, 0.35, 3)
	size := func(name string) int { return MustGet(name)(a).CompressedSize() }

	den := size("DEN")
	csr := size("CSR")
	tocSize := size("TOC")
	gzip := size("Gzip")
	snappySize := size("Snappy")

	if !(tocSize < csr && csr < den) {
		t.Errorf("want TOC < CSR < DEN, got TOC=%d CSR=%d DEN=%d", tocSize, csr, den)
	}
	if gzip >= den || snappySize >= den {
		t.Errorf("GC should beat DEN: gzip=%d snappy=%d den=%d", gzip, snappySize, den)
	}
}

// The paper's Figure 5 and 6 shapes on the synthetic stand-in datasets,
// one 250-row mini-batch each (ratio = DEN bytes / compressed bytes): TOC
// beats CSR/CVI/DVI/CLA/Snappy and roughly matches Gzip on the
// moderate-sparsity sets, where each encoding layer also raises the
// ratio; Gzip edges TOC on mnist; TOC tracks CSR on rcv1; nothing
// compresses deep1b.
func TestCompressionRatioShapes(t *testing.T) {
	methods := []string{"CSR", "CVI", "DVI", "Snappy", "Gzip", "TOC", "CLA",
		"TOC_SPARSE", "TOC_SPARSE_AND_LOGICAL", "TOC_FULL"}
	ratios := map[string]map[string]float64{}
	for _, ds := range []string{"census", "imagenet", "mnist", "kdd99", "rcv1", "deep1b"} {
		d, err := data.Generate(ds, 250, 1)
		if err != nil {
			t.Fatal(err)
		}
		d.ShuffleOnce(2)
		batch := d.X.SliceRows(0, 250)
		r := map[string]float64{}
		for _, m := range methods {
			r[m] = float64(batch.SerializedSize()) / float64(MustGet(m)(batch).CompressedSize())
		}
		ratios[ds] = r
	}
	for _, ds := range []string{"census", "imagenet", "kdd99"} {
		r := ratios[ds]
		for _, other := range []string{"CSR", "CVI", "DVI", "CLA", "Snappy"} {
			if r["TOC"] <= r[other] {
				t.Errorf("%s: TOC %.2f should beat %s %.2f", ds, r["TOC"], other, r[other])
			}
		}
		if r["TOC"] < r["Gzip"]*0.95 {
			t.Errorf("%s: TOC %.2f should be at least ~Gzip %.2f", ds, r["TOC"], r["Gzip"])
		}
		if !(r["TOC_SPARSE"] < r["TOC_SPARSE_AND_LOGICAL"] && r["TOC_SPARSE_AND_LOGICAL"] < r["TOC_FULL"]) {
			t.Errorf("%s: want TOC_SPARSE < TOC_SPARSE_AND_LOGICAL < TOC_FULL, got %.2f, %.2f, %.2f",
				ds, r["TOC_SPARSE"], r["TOC_SPARSE_AND_LOGICAL"], r["TOC_FULL"])
		}
	}
	if m := ratios["mnist"]; m["Gzip"] <= m["TOC"] {
		t.Errorf("mnist: Gzip %.2f should beat TOC %.2f (paper)", m["Gzip"], m["TOC"])
	}
	if r := ratios["rcv1"]; r["TOC"] < r["CSR"]*0.8 || r["TOC"] > r["CSR"]*1.5 {
		t.Errorf("rcv1: TOC %.2f should track CSR %.2f", r["TOC"], r["CSR"])
	}
	for _, name := range []string{"CSR", "CVI", "DVI", "Snappy", "Gzip", "TOC", "CLA"} {
		if v := ratios["deep1b"][name]; v > 1.2 {
			t.Errorf("deep1b: %s ratio %.2f should be ~1", name, v)
		}
	}
}

// DEN must report exactly the paper's dense binary size.
func TestDENSize(t *testing.T) {
	a := matrix.NewDense(250, 68)
	if got, want := MustGet("DEN")(a).CompressedSize(), 16+8*250*68; got != want {
		t.Fatalf("DEN size = %d, want %d", got, want)
	}
}

// Scale must not mutate the original encoding (needed because MGD reuses
// cached mini-batches across epochs).
func TestScaleDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := redundantMatrix(rng, 20, 10, 0.5, 3)
	for _, name := range Names() {
		c := MustGet(name)(a)
		_ = c.Scale(7.5)
		if !c.Decode().Equal(a) {
			t.Errorf("%s: Scale mutated the receiver", name)
		}
	}
}

// One way to multiply a batch: a plan's exported methods are its four
// Into kernels plus Batch and Release, and ParallelOps adds nothing to
// CompressedMatrix but NewKernelPlan. A second entry point per kernel — a
// *Parallel method, a non-Into plan method — fails here.
func TestKernelSurface(t *testing.T) {
	methods := func(typ reflect.Type) string {
		names := make([]string, typ.NumMethod())
		for i := range names {
			names[i] = typ.Method(i).Name
		}
		sort.Strings(names)
		return strings.Join(names, " ")
	}
	if got, want := methods(reflect.TypeOf((*core.KernelPlan)(nil))),
		"Batch MatMulInto MulMatInto MulVecInto Release VecMulInto"; got != want {
		t.Errorf("*core.KernelPlan exports {%s}, want {%s}", got, want)
	}
	if got, want := methods(reflect.TypeOf((*KernelPlan)(nil)).Elem()),
		"MatMulInto MulMatInto MulVecInto Release VecMulInto"; got != want {
		t.Errorf("KernelPlan declares {%s}, want {%s}", got, want)
	}
	if got, want := methods(reflect.TypeOf((*csrPlan)(nil))),
		"MatMulInto MulMatInto MulVecInto Release VecMulInto"; got != want {
		t.Errorf("*csrPlan exports {%s}, want {%s}", got, want)
	}
	base := " " + methods(reflect.TypeOf((*CompressedMatrix)(nil)).Elem()) + " "
	var added []string
	for _, name := range strings.Fields(methods(reflect.TypeOf((*ParallelOps)(nil)).Elem())) {
		if !strings.Contains(base, " "+name+" ") {
			added = append(added, name)
		}
	}
	if len(added) != 1 || added[0] != "NewKernelPlan" {
		t.Errorf("ParallelOps adds %v to CompressedMatrix, want [NewKernelPlan]", added)
	}
}
