package formats

import (
	"math"
	"sort"
	"testing"
	"time"

	"toc/internal/data"
	"toc/internal/matrix"
)

// BenchmarkKernelsVsDEN is the kernel-speed probe CI gates with
// cmd/benchdiff: the paper's four Table 1 products (Algorithms 5–8, whose
// op times are Fig 8) run by the TOC_FULL and TOC_SPARSE plans against
// the same product run by DEN on the same batch. The data is four full
// 1000-row batches of seeded imagenet, every plan runs at workers = 1,
// and each sub-benchmark is one <product>/<variant> row.
//
// For each batch the compressed kernel and the DEN kernel run back to
// back, the first of the two alternating from batch to batch. A row
// reports two medians over those runs:
//   - ns/nnz, the compressed kernel's own ns per nnz·p (p = 1 for the
//     vector products). It times no DEN code, so DEN's code layout does
//     not move it; cmd/benchdiff gates on it, change against parent.
//   - vs_den, the pair's ratio: ns per nnz·p over DEN's ns per dense
//     element·p, lower is better. Both sides of a ratio run on the same
//     machine, data and moment, so it transfers across machines where
//     nanoseconds do not; it is printed, not gated.
//
// Every iteration also folds each result element, batch by batch, into a
// checksum per side. A compressed checksum more than 1e-6 (relative) from
// DEN's fails the run; its bits are logged as a per-row fingerprint that
// is identical from run to run. A sparse row is the TOC_SPARSE plan,
// which is CSR's, and folds in a different order from the full row, so
// the two may differ in the last bit.
func BenchmarkKernelsVsDEN(b *testing.B) {
	const batchSize, p = 1000, 32
	d, err := data.Generate("imagenet", 4*batchSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	d.ShuffleOnce(2)
	batches := make([]*matrix.Dense, 4)
	for i := range batches {
		batches[i], _ = d.Batch(i, batchSize)
	}
	cols := d.X.Cols()

	// Deterministic operands (no global rand).
	vr := make([]float64, cols)
	for i := range vr {
		vr[i] = float64(i%7) - 3.2
	}
	vl := make([]float64, batchSize)
	for i := range vl {
		vl[i] = float64(i%5) - 1.7
	}
	mr := matrix.NewDense(cols, p)
	for i := 0; i < cols; i++ {
		for j := 0; j < p; j++ {
			mr.Set(i, j, float64((i+3*j)%11)-4.8)
		}
	}
	ml := matrix.NewDense(p, batchSize)
	for i := 0; i < p; i++ {
		for j := 0; j < batchSize; j++ {
			ml.Set(i, j, float64((2*i+j)%9)-3.9)
		}
	}

	// out is one side's reused result, so no timed call allocates.
	type out struct {
		vec []float64
		mat *matrix.Dense
	}
	products := []struct {
		name string
		p    int
		run  func(kp KernelPlan, o *out) []float64
	}{
		{"MulVec", 1, func(kp KernelPlan, o *out) []float64 { o.vec = kp.MulVecInto(o.vec, vr, 1); return o.vec }},
		{"VecMul", 1, func(kp KernelPlan, o *out) []float64 { o.vec = kp.VecMulInto(o.vec, vl, 1); return o.vec }},
		{"MulMat", p, func(kp KernelPlan, o *out) []float64 { o.mat = kp.MulMatInto(o.mat, mr, 1); return o.mat.Data() }},
		{"MatMul", p, func(kp KernelPlan, o *out) []float64 { o.mat = kp.MatMulInto(o.mat, ml, 1); return o.mat.Data() }},
	}
	plans := func(method string) []KernelPlan {
		kps := make([]KernelPlan, len(batches))
		for i, x := range batches {
			kps[i] = MustGet(method)(x).NewKernelPlan()
		}
		return kps
	}
	den := plans("DEN")
	// nnz[i] is batch i's nonzeros; denPerNnz[i] turns its ns per dense
	// element into ns per nnz.
	nnz, denPerNnz := make([]float64, len(batches)), make([]float64, len(batches))
	for i, x := range batches {
		nnz[i] = float64(x.NNZ())
		denPerNnz[i] = float64(x.Rows()*cols) / nnz[i]
	}

	for _, variant := range []struct{ method, name string }{{"TOC_FULL", "full"}, {"TOC_SPARSE", "sparse"}} {
		toc := plans(variant.method)
		for _, pr := range products {
			b.Run(pr.name+"/"+variant.name, func(b *testing.B) {
				var tocOut, denOut out
				// timed runs kp once and returns its time and checksum.
				timed := func(kp KernelPlan, o *out) (time.Duration, float64) {
					start := time.Now()
					r := pr.run(kp, o)
					dur := time.Since(start)
					var s float64
					for _, x := range r {
						s += x
					}
					return dur, s
				}
				ratios := make([]float64, 0, b.N*len(batches))
				own := make([]float64, 0, b.N*len(batches))
				var sum float64
				for n := 0; n < b.N; n++ {
					var tocSum, denSum float64
					for i := range batches {
						var tocDur, denDur time.Duration
						var ts, ds float64
						if (n+i)%2 == 0 {
							tocDur, ts = timed(toc[i], &tocOut)
							denDur, ds = timed(den[i], &denOut)
						} else {
							denDur, ds = timed(den[i], &denOut)
							tocDur, ts = timed(toc[i], &tocOut)
						}
						tocSum += ts
						denSum += ds
						ratios = append(ratios, float64(tocDur)/float64(denDur)*denPerNnz[i])
						own = append(own, float64(tocDur)/(nnz[i]*float64(pr.p)))
					}
					// DEN folds in a different float association, so the
					// sums agree only to rounding: this guards against a
					// kernel computing the wrong thing outright. Bitwise
					// identity is TestAllMethodsOpsMatchDense's to pin.
					if diff := math.Abs(tocSum - denSum); diff > 1e-6*(1+math.Abs(denSum)) {
						b.Fatalf("checksum %g vs DEN %g", tocSum, denSum)
					}
					sum = tocSum
				}
				b.ReportMetric(median(own), "ns/nnz")
				b.ReportMetric(median(ratios), "vs_den")
				if b.N == 1 { // only a row's first, sizing run: one line per -count
					b.Logf("checksum %016x", math.Float64bits(sum))
				}
			})
		}
	}
}

// median sorts xs and returns its median, the mean of the middle two for
// an even count.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}
