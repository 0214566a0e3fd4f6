package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/matrix"
)

// The kernelspeed regime measures raw single-core kernel speed: ns per
// unit of useful work (nonzero element processed, times the p result
// columns for the matrix kernels) for each of the four compressed
// multiplications, next to a dense-float64 roofline — the same
// multiplication run by the DEN kernels over the decompressed matrix.
//
// The roofline-relative column (vs_roofline = compressed ns/work ÷ dense
// ns/element) is what CI gates: it is a ratio of two loops measured
// back-to-back on the same machine and the same data, so it transfers
// across runner generations the way raw nanoseconds never do.
//
// All rows run at workers=1 through a formats.KernelPlan, so the numbers
// isolate the inner decode loops: no goroutine fan-out, no per-op tree
// rebuild. A "full" row is the TOC_FULL plan; a "sparse" row is the
// TOC_SPARSE plan, which is CSR's. The checksum column folds every result
// element in a fixed order: a sum that strays more than 1e-6 (relative)
// from the dense kernel's fails the run, and the printed bits are a
// per-row fingerprint that is stable from run to run. Full and sparse
// rows fold in a different order, so their checksums may differ in the
// last bits.

// Table is a rendered regime result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table to w as CSV: a header row of "experiment"
// plus the column names, then one record per row prefixed with the
// table id — the format cmd/benchdiff reads.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"experiment"}, t.Columns...)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(append([]string{t.ID}, row...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// minDuration runs fn reps times and returns the fastest run — the
// standard noise filter for microbenchmarks on shared runners, where the
// minimum approximates the uninterrupted execution.
func minDuration(reps int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// runKernelSpeed measures the regime over the first full 1000-row
// batches (at most four) of a seeded imagenet set of dataRows rows,
// keeping the fastest of reps runs per row.
func runKernelSpeed(dataRows, reps int) (*Table, error) {
	const batchSize, p = 1000, 32
	t := &Table{
		ID:    "kernelspeed",
		Title: "single-core kernel ns/nonzero vs dense roofline (workers=1, plan reuse)",
		Columns: []string{"kernel", "variant", "rows", "nnz", "ns_per_nnz",
			"roofline_ns_per_elem", "vs_roofline", "checksum"},
		Notes: []string{
			"ns_per_nnz: kernel time / nonzeros processed (x p result columns for A*M, M*A)",
			"  roofline: the same multiplication by the dense DEN kernel over the decompressed",
			"  matrix, per dense element; vs_roofline = ns_per_nnz / roofline (lower is better,",
			"  and portable across runners — both loops run on the same machine and data)",
		},
	}
	d, err := data.Generate("imagenet", dataRows, 1)
	if err != nil {
		return nil, err
	}
	d.ShuffleOnce(2)
	// Only full-size batches: every row then shares the operand shapes,
	// and a partial tail batch cannot skew the per-work normalization.
	var dense []*matrix.Dense
	nnz := 0
	for i := 0; i < d.NumBatches(batchSize) && len(dense) < 4; i++ {
		x, _ := d.Batch(i, batchSize)
		if x.Rows() != batchSize {
			continue
		}
		dense = append(dense, x)
		nnz += x.NNZ()
	}
	if len(dense) == 0 {
		return nil, fmt.Errorf("kernelspeed: dataset smaller than one %d-row batch", batchSize)
	}
	n := len(dense)
	cols := d.X.Cols()
	rows := n * batchSize
	elems := rows * cols

	// Deterministic operand vectors/matrices (no global rand).
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

	sumVec := func(r []float64) float64 {
		var s float64
		for _, x := range r {
			s += x
		}
		return s
	}

	type kernelCase struct {
		name string
		// work is the denominator of ns_per_nnz for this kernel.
		work int
		// run executes the compressed kernel over every batch's plan,
		// folding results into a checksum.
		run func(plans []formats.KernelPlan) float64
		// roofline executes the dense counterpart over every batch.
		roofline func() float64
		// roofElems is the dense work denominator.
		roofElems int
	}
	cases := []kernelCase{
		{
			name: "MulVec", work: nnz, roofElems: elems,
			run: func(plans []formats.KernelPlan) float64 {
				var s float64
				for _, kp := range plans {
					s += sumVec(kp.MulVecInto(nil, vr, 1))
				}
				return s
			},
			roofline: func() float64 {
				var s float64
				for _, x := range dense {
					s += sumVec(x.MulVec(vr))
				}
				return s
			},
		},
		{
			name: "VecMul", work: nnz, roofElems: elems,
			run: func(plans []formats.KernelPlan) float64 {
				var s float64
				for _, kp := range plans {
					s += sumVec(kp.VecMulInto(nil, vl, 1))
				}
				return s
			},
			roofline: func() float64 {
				var s float64
				for _, x := range dense {
					s += sumVec(x.VecMul(vl))
				}
				return s
			},
		},
		{
			name: "MulMat", work: nnz * p, roofElems: elems * p,
			run: func(plans []formats.KernelPlan) float64 {
				var s float64
				for _, kp := range plans {
					s += sumVec(kp.MulMatInto(nil, mr, 1).Data())
				}
				return s
			},
			roofline: func() float64 {
				var s float64
				for _, x := range dense {
					s += sumVec(x.MulMat(mr).Data())
				}
				return s
			},
		},
		{
			name: "MatMul", work: nnz * p, roofElems: elems * p,
			run: func(plans []formats.KernelPlan) float64 {
				var s float64
				for _, kp := range plans {
					s += sumVec(kp.MatMulInto(nil, ml, 1).Data())
				}
				return s
			},
			roofline: func() float64 {
				var s float64
				for _, x := range dense {
					s += sumVec(ml.MulMat(x).Data())
				}
				return s
			},
		},
	}

	for _, variant := range []struct{ method, vname string }{{"TOC_FULL", "full"}, {"TOC_SPARSE", "sparse"}} {
		enc, vname := formats.MustGet(variant.method), variant.vname
		plans := make([]formats.KernelPlan, n)
		for i, x := range dense {
			plans[i] = enc(x).NewKernelPlan()
		}
		for _, kc := range cases {
			var sum float64
			kdur := minDuration(reps, func() { sum = kc.run(plans) })
			var roofSum float64
			rdur := minDuration(reps, func() { roofSum = kc.roofline() })
			// The dense kernel computes the same multiplication with a
			// different float association, so the checksums agree only to
			// rounding; the bitwise contract is vs the sequential TOC
			// kernels (pinned by the core equivalence tests), while this
			// guards against a rewrite computing the wrong thing outright.
			if diff := math.Abs(sum - roofSum); diff > 1e-6*(1+math.Abs(roofSum)) {
				return nil, fmt.Errorf("kernelspeed: %s/%s checksum %g vs dense %g",
					kc.name, vname, sum, roofSum)
			}
			nsPerNnz := float64(kdur.Nanoseconds()) / float64(kc.work)
			roofNs := float64(rdur.Nanoseconds()) / float64(kc.roofElems)
			t.Rows = append(t.Rows, []string{
				kc.name, vname, fmt.Sprint(rows), fmt.Sprint(nnz),
				fmt.Sprintf("%.3f", nsPerNnz),
				fmt.Sprintf("%.3f", roofNs),
				fmt.Sprintf("%.2f", nsPerNnz/roofNs),
				fmt.Sprintf("%016x", math.Float64bits(sum)),
			})
		}
	}
	return t, nil
}
