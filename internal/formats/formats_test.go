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

// MustGetCodec, the one panicking lookup, panics on an unknown method.
func TestMustGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGetCodec("NOPE")
}

func TestAllMethodsLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := redundantMatrix(rng, 60, 25, 0.4, 4)
	for _, name := range Names() {
		enc := MustGetCodec(name).Encode
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

// Every scheme's plan computes Table 1's four multiplications as DEN's
// dense kernels do: bit for bit for the schemes that fold each output
// element in DEN's order, within 1e-9 for CLA and the TOC variants, which
// fold in their own. A plan's result is the same bits with a nil dst or a
// dirty caller-owned one, at every worker count. v, u and M hold zeros,
// which the dense kernels skip.
func TestAllMethodsOpsMatchDense(t *testing.T) {
	bitwise := map[string]bool{"DEN": true, "CSR": true, "TOC_SPARSE": true,
		"CVI": true, "DVI": true, "Snappy": true, "Gzip": true}
	opNames := [4]string{"A·v", "v·A", "A·M", "M·A"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(25)
		cols := 1 + rng.Intn(15)
		a := redundantMatrix(rng, rows, cols, 0.2+rng.Float64()*0.6, 3)
		draw := func(x []float64) {
			for i := range x {
				if rng.Intn(4) != 0 {
					x[i] = rng.NormFloat64()
				}
			}
		}
		v, u := make([]float64, cols), make([]float64, rows)
		draw(v)
		draw(u)
		p := 1 + rng.Intn(3)
		mr, ml := matrix.NewDense(cols, p), matrix.NewDense(p, rows)
		draw(mr.Data())
		draw(ml.Data())
		want := [4][]float64{a.MulVec(v), a.VecMul(u), a.MulMat(mr).Data(), a.MatMul(ml).Data()}
		scale := rng.NormFloat64()
		wantScale := a.Scale(scale)

		ok := true
		for _, name := range Names() {
			c := MustGetCodec(name).Encode(a)
			plan := c.NewKernelPlan()
			var first [4][]float64
			for _, workers := range []int{1, 2, 7} {
				for _, dirty := range []bool{false, true} {
					var dv, du []float64
					var dr, dl *matrix.Dense
					if dirty {
						dv, du = nans(make([]float64, rows)), nans(make([]float64, cols))
						dr, dl = matrix.NewDense(rows, p), matrix.NewDense(p, cols)
						nans(dr.Data())
						nans(dl.Data())
					}
					got := [4][]float64{
						plan.MulVecInto(dv, v, workers),
						plan.VecMulInto(du, u, workers),
						plan.MulMatInto(dr, mr, workers).Data(),
						plan.MatMulInto(dl, ml, workers).Data(),
					}
					for op := range got {
						switch {
						case first[op] == nil:
							first[op] = got[op]
							if bitwise[name] && !sameBits(got[op], want[op]) || !vecEq(got[op], want[op]) {
								t.Errorf("seed %d %s %s: %v, DEN %v", seed, name, opNames[op], got[op], want[op])
								ok = false
							}
						case !sameBits(got[op], first[op]):
							t.Errorf("seed %d %s %s workers=%d dirty=%v: %v, want %v",
								seed, name, opNames[op], workers, dirty, got[op], first[op])
							ok = false
						}
					}
				}
			}
			plan.Release()
			if !c.Scale(scale).Decode().EqualApprox(wantScale, 1e-9) {
				t.Errorf("seed %d %s: Scale differs from DEN", seed, name)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// nans fills x with NaN, a dirty destination, and returns it.
func nans(x []float64) []float64 {
	for i := range x {
		x[i] = math.NaN()
	}
	return x
}

func sameBits(a, b []float64) bool {
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
	size := func(name string) int { return MustGetCodec(name).Encode(a).CompressedSize() }

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
			r[m] = float64(batch.SerializedSize()) / float64(MustGetCodec(m).Encode(batch).CompressedSize())
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
	if got, want := MustGetCodec("DEN").Encode(a).CompressedSize(), 16+8*250*68; got != want {
		t.Fatalf("DEN size = %d, want %d", got, want)
	}
}

// Scale must not mutate the original encoding (needed because MGD reuses
// cached mini-batches across epochs).
func TestScaleDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := redundantMatrix(rng, 20, 10, 0.5, 3)
	for _, name := range Names() {
		c := MustGetCodec(name).Encode(a)
		_ = c.Scale(7.5)
		if !c.Decode().Equal(a) {
			t.Errorf("%s: Scale mutated the receiver", name)
		}
	}
}

// An encoder keeps no reference to its input: data.Dataset.Batch hands
// it a view of the dataset's rows, so an encoding that aliased them would
// change when the rows do and would keep the whole dataset alive. Each
// scheme encodes a view, its source is overwritten, and the batch must
// decode and serialize as before.
func TestEncodersKeepNoReferenceToInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, name := range Names() {
		src := redundantMatrix(rng, 30, 12, 0.5, 4)
		view := src.ViewRows(5, 25)
		want := view.Clone()
		c := MustGetCodec(name).Encode(view)
		img := c.Serialize()
		for i := range src.Data() {
			src.Data()[i] = float64(i) + 0.5
		}
		if !c.Decode().Equal(want) {
			t.Errorf("%s: overwriting the encoded rows changed Decode()", name)
		}
		if !reflect.DeepEqual(c.Serialize(), img) {
			t.Errorf("%s: overwriting the encoded rows changed Serialize()", name)
		}
	}
}

// One way to multiply a batch: CompressedMatrix declares no kernel of its
// own, only NewKernelPlan, and every scheme's plan exports exactly the
// four Into kernels and Release (TOC's, core.KernelPlan, also its Batch).
// A second entry point per kernel — an allocating method on the batch, a
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
	if got, want := methods(reflect.TypeOf((*CompressedMatrix)(nil)).Elem()),
		"Cols CompressedSize Decode NewKernelPlan Rows Scale Serialize"; got != want {
		t.Errorf("CompressedMatrix declares {%s}, want {%s}", got, want)
	}
	const kernels = "MatMulInto MulMatInto MulVecInto Release VecMulInto"
	if got := methods(reflect.TypeOf((*KernelPlan)(nil)).Elem()); got != kernels {
		t.Errorf("KernelPlan declares {%s}, want {%s}", got, kernels)
	}
	corePlan := reflect.TypeOf((*core.KernelPlan)(nil))
	if got, want := methods(corePlan), "Batch "+kernels; got != want {
		t.Errorf("*core.KernelPlan exports {%s}, want {%s}", got, want)
	}
	a := matrix.NewDense(2, 3)
	for _, name := range Names() {
		typ := reflect.TypeOf(MustGetCodec(name).Encode(a).NewKernelPlan())
		if typ == corePlan {
			continue
		}
		if got := methods(typ); got != kernels {
			t.Errorf("%s: %v exports {%s}, want {%s}", name, typ, got, kernels)
		}
	}
}
