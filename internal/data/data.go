// Package data generates the synthetic stand-ins for the paper's six
// evaluation datasets (Table 5). The real datasets are not redistributable
// (and Deep1Billion alone is 475 GB), so each generator reproduces the
// properties TOC's behaviour actually depends on — sparsity, per-column
// value cardinality, and cross-row repeated-segment structure — at
// laptop-scale dimensions:
//
//	census   2.5M×68   sparsity 0.43  categorical, clustered rows
//	imagenet 1.2M×900  sparsity 0.31  quantized features, moderate reuse
//	mnist    8.1M×784  sparsity 0.25  pixel-like, FEW repeated sequences
//	kdd99    4M×42     sparsity 0.39  tiny cardinality, extreme redundancy
//	rcv1     800K×47K  sparsity 0.0016  extremely sparse, random columns
//	deep1b   1B×96     dense          unique floats, incompressible
//
// The generators are deterministic given a seed, so every experiment in
// the repository is reproducible.
package data

import (
	"fmt"
	"math/rand"
	"sort"

	"toc/internal/matrix"
)

// Dataset is a generated dataset: features, labels and label arity.
type Dataset struct {
	Name string
	X    *matrix.Dense
	// Y holds class ids (0..Classes-1) for classification datasets.
	Y []float64
	// Classes is 2 for the binary datasets and 10 for mnist, matching the
	// paper's §5.3 setup.
	Classes int
}

// Names returns the six paper dataset names in Table 5 order.
func Names() []string {
	return []string{"census", "imagenet", "mnist", "kdd99", "rcv1", "deep1b"}
}

// DefaultCols returns the scaled-down column count used for a dataset.
// Census, kdd99 and deep1b keep their true widths; the wide datasets are
// scaled to keep experiment runtimes laptop-sized.
func DefaultCols(name string) (int, error) {
	switch name {
	case "census":
		return 68, nil
	case "imagenet":
		return 180, nil
	case "mnist":
		return 196, nil
	case "kdd99":
		return 42, nil
	case "rcv1":
		return 2362, nil
	case "deep1b":
		return 96, nil
	default:
		return 0, fmt.Errorf("data: unknown dataset %q", name)
	}
}

// Generate builds rows rows of the named dataset with its default width.
func Generate(name string, rows int, seed int64) (*Dataset, error) {
	cols, err := DefaultCols(name)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var x *matrix.Dense
	classes := 2
	switch name {
	case "census":
		x = genClustered(rng, rows, cols, clusteredSpec{
			slots: 2, variants: 16, cardinality: 6, globalPool: 32,
			comboSkew: 0.8, comboCount: 4, zeroProb: 0.57, mutateProb: 0.008,
			noiseCols: 3, noisePool: 128,
		})
	case "imagenet":
		x = genClustered(rng, rows, cols, clusteredSpec{
			slots: 18, variants: 20, cardinality: 24, zeroProb: 0.69, mutateProb: 0.08,
		})
	case "mnist":
		// Pixel-like: one global pool of 256 quantized levels (8-bit
		// pixels scaled), and high mutation that destroys cross-row pair
		// sequences — so the logical layer helps little and byte-level
		// Gzip stays ahead of TOC (paper Figures 5 and 6).
		x = genClustered(rng, rows, cols, clusteredSpec{
			templates: 48, cardinality: 256, zeroProb: 0.75, mutateProb: 0.5,
			quantized: true,
		})
		classes = 10
	case "kdd99":
		x = genClustered(rng, rows, cols, clusteredSpec{
			slots: 2, variants: 6, cardinality: 4, globalPool: 24,
			comboSkew: 0.94, comboCount: 3, zeroProb: 0.61, mutateProb: 0.004,
		})
	case "rcv1":
		x = genExtremeSparse(rng, rows, cols, 0.0016, 64)
	case "deep1b":
		x = genDenseUnique(rng, rows, cols)
	default:
		return nil, fmt.Errorf("data: unknown dataset %q", name)
	}
	d := &Dataset{Name: name, X: x, Classes: classes}
	d.Y = teacherLabels(rng, x, classes)
	return d, nil
}

// clusteredSpec controls the clustered categorical/quantized generator
// shared by census, imagenet, mnist and kdd99.
type clusteredSpec struct {
	templates   int     // number of whole-row templates (quantized style)
	slots       int     // number of column segments (segment style)
	variants    int     // library size per segment (segment style)
	cardinality int     // distinct non-zero values per column
	globalPool  int     // if >0, column pools draw from this many shared values
	comboSkew   float64 // probability a row uses one of the favored combos
	comboCount  int     // number of favored whole-row combos (default 8)
	noiseCols   int     // continuous-ish columns redrawn per row
	noisePool   int     // distinct quantized values of the noise columns
	zeroProb    float64 // probability a template cell is zero
	mutateProb  float64 // per-cell probability a row deviates from template
	// quantized selects mnist-style generation: whole-row templates over
	// one global pool of cardinality evenly spaced levels (k/255-like
	// pixels) whose repeated byte patterns favour byte-level compressors.
	// When false, the generator composes each row from per-segment
	// variant libraries — redundancy lives in repeated column
	// *subsequences* across rows (the §3.1 structure TOC exploits), not
	// in whole rows, and values are full-entropy random doubles.
	quantized bool
}

// genClustered generates rows with either whole-row-template (quantized)
// or segment-composition structure. Segment composition splits the
// columns into spec.slots contiguous ranges, each with spec.variants
// pre-drawn instances; a row picks one variant per slot independently, so
// whole rows almost never repeat but column segments repeat constantly —
// beyond the reach of a windowed byte compressor, squarely inside the
// reach of TOC's batch-wide prefix tree.
func genClustered(rng *rand.Rand, rows, cols int, spec clusteredSpec) *matrix.Dense {
	// Per-column pools of distinct non-zero values.
	pools := make([][]float64, cols)
	var global []float64
	if spec.quantized {
		global = make([]float64, spec.cardinality)
		for k := range global {
			global[k] = float64(k+1) / float64(spec.cardinality)
		}
	}
	var shared []float64
	if spec.globalPool > 0 {
		// Real categorical/count data (census, kdd99) reuses a small set
		// of values across columns — small integers, codes, rates — so
		// the value-indexing dictionary stays tiny.
		shared = make([]float64, spec.globalPool)
		for k := range shared {
			shared[k] = rng.Float64()
		}
	}
	for c := range pools {
		if spec.quantized {
			pools[c] = global
			continue
		}
		pool := make([]float64, spec.cardinality)
		for k := range pool {
			if shared != nil {
				pool[k] = shared[rng.Intn(len(shared))]
			} else {
				pool[k] = rng.Float64()
			}
		}
		pools[c] = pool
	}
	draw := func(c int) float64 {
		if rng.Float64() < spec.zeroProb {
			return 0
		}
		return pools[c][rng.Intn(len(pools[c]))]
	}
	d := matrix.NewDense(rows, cols)

	if spec.quantized {
		templates := make([][]float64, spec.templates)
		for t := range templates {
			row := make([]float64, cols)
			for c := range row {
				row[c] = draw(c)
			}
			templates[t] = row
		}
		for i := 0; i < rows; i++ {
			row := d.Row(i)
			copy(row, templates[rng.Intn(spec.templates)])
			for c := range row {
				if rng.Float64() < spec.mutateProb {
					row[c] = draw(c)
				}
			}
		}
		return d
	}

	// Segment-composition structure.
	slots := spec.slots
	if slots < 1 {
		slots = 1
	}
	if slots > cols {
		slots = cols
	}
	bounds := make([]int, slots+1)
	for s := 0; s <= slots; s++ {
		bounds[s] = s * cols / slots
	}
	// library[s][v] is variant v of segment s.
	library := make([][][]float64, slots)
	for s := 0; s < slots; s++ {
		library[s] = make([][]float64, spec.variants)
		for v := 0; v < spec.variants; v++ {
			seg := make([]float64, bounds[s+1]-bounds[s])
			for k := range seg {
				seg[k] = draw(bounds[s] + k)
			}
			library[s][v] = seg
		}
	}
	// Continuous-ish columns (ages, counts, rates): redrawn per row from a
	// moderately large quantized pool. They are a small cost for TOC's
	// value dictionary but force a byte compressor to spend literals.
	var noise []float64
	if spec.noiseCols > 0 {
		noise = make([]float64, spec.noisePool)
		for k := range noise {
			noise[k] = rng.Float64()
		}
	}
	// Favored whole-row combinations: real enterprise data is dominated by
	// a handful of full-record patterns with a long tail of free
	// recombinations — kdd99 famously consists almost entirely of the
	// smurf/neptune/normal record shapes.
	nCombos := spec.comboCount
	if nCombos <= 0 {
		nCombos = 8
	}
	combos := make([][]int, nCombos)
	for k := range combos {
		combo := make([]int, slots)
		for s := range combo {
			combo[s] = rng.Intn(spec.variants)
		}
		combos[k] = combo
	}
	// Rows arrive as interleaved bursts: several flows are active at once
	// (kdd99 records multiplex network flows; census blocks interleave
	// districts), each contributing a run of near-identical records. The
	// interleaving matters: identical rows recur a few rows apart rather
	// than adjacently, so a byte-level compressor pays one back-reference
	// per row instead of streaming one continuous match, while TOC's
	// batch-wide dictionary is indifferent to row order.
	const flows = 6
	type burst struct {
		combo []int
		left  int
	}
	active := make([]burst, flows)
	nextBurst := func() burst {
		if rng.Float64() < spec.comboSkew {
			return burst{combo: combos[rng.Intn(nCombos)], left: 2 + rng.Intn(9)}
		}
		return burst{combo: nil, left: 1}
	}
	for f := range active {
		active[f] = nextBurst()
	}
	for i := 0; i < rows; i++ {
		f := rng.Intn(flows)
		if active[f].left == 0 {
			active[f] = nextBurst()
		}
		active[f].left--
		combo := active[f].combo
		row := d.Row(i)
		if combo != nil {
			for s := 0; s < slots; s++ {
				copy(row[bounds[s]:bounds[s+1]], library[s][combo[s]])
			}
		} else {
			for s := 0; s < slots; s++ {
				copy(row[bounds[s]:bounds[s+1]], library[s][rng.Intn(spec.variants)])
			}
		}
		for c := range row {
			if rng.Float64() < spec.mutateProb {
				row[c] = draw(c)
			}
		}
		for k := 0; k < spec.noiseCols; k++ {
			row[noiseAt(k, spec.noiseCols, cols)] = noise[rng.Intn(len(noise))]
		}
	}
	return d
}

// noiseAt spreads the k-th of n noise columns evenly over cols columns.
func noiseAt(k, n, cols int) int {
	return (k*cols + cols/2) / n % cols
}

// genExtremeSparse mimics rcv1: a handful of non-zeros per row at random
// columns with tf-idf-like full-entropy values. Column positions are
// random and values rarely repeat, so neither pair sequences nor value
// dictionaries help — CSR territory, with TOC reducing to roughly CSR.
func genExtremeSparse(rng *rand.Rand, rows, cols int, sparsity float64, _ int) *matrix.Dense {
	d := matrix.NewDense(rows, cols)
	mean := sparsity * float64(cols)
	for i := 0; i < rows; i++ {
		// Uniform non-zero count around the sparsity target; at least one
		// non-zero so no row is empty.
		nnz := 1 + rng.Intn(int(2*mean)+1)
		seen := make(map[int]struct{}, nnz)
		for len(seen) < nnz {
			seen[rng.Intn(cols)] = struct{}{}
		}
		colsDrawn := make([]int, 0, nnz)
		for c := range seen {
			colsDrawn = append(colsDrawn, c)
		}
		sort.Ints(colsDrawn)
		for _, c := range colsDrawn {
			d.Set(i, c, rng.Float64())
		}
	}
	return d
}

// genDenseUnique mimics deep1b: fully dense rows of unique floats; no
// compression scheme should find anything to exploit.
func genDenseUnique(rng *rand.Rand, rows, cols int) *matrix.Dense {
	d := matrix.NewDense(rows, cols)
	data := d.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return d
}

// teacherLabels assigns learnable labels: binary datasets use the sign of
// a random teacher's score (thresholded at the median so classes are
// balanced); multiclass datasets use the argmax over per-class teachers.
func teacherLabels(rng *rand.Rand, x *matrix.Dense, classes int) []float64 {
	rows, cols := x.Rows(), x.Cols()
	y := make([]float64, rows)
	if rows == 0 {
		return y
	}
	if classes <= 2 {
		w := make([]float64, cols)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		scores := x.MulVec(w)
		sorted := append([]float64(nil), scores...)
		sort.Float64s(sorted)
		threshold := sorted[rows/2]
		for i, s := range scores {
			if s > threshold {
				y[i] = 1
			}
		}
		return y
	}
	teachers := matrix.NewDense(cols, classes)
	for i := 0; i < cols; i++ {
		for c := 0; c < classes; c++ {
			teachers.Set(i, c, rng.NormFloat64())
		}
	}
	scores := x.MulMat(teachers)
	for i := 0; i < rows; i++ {
		best, bestV := 0, scores.At(i, 0)
		for c := 1; c < classes; c++ {
			if v := scores.At(i, c); v > bestV {
				best, bestV = c, v
			}
		}
		y[i] = float64(best)
	}
	return y
}

// ShuffleOnce permutes rows and labels in place with the given seed — the
// paper's §2.1.3 shuffle-once policy (shuffling every epoch is too
// expensive, so the data is shuffled once upfront).
func (d *Dataset) ShuffleOnce(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rows := d.X.Rows()
	perm := rng.Perm(rows)
	nx := matrix.NewDense(rows, d.X.Cols())
	ny := make([]float64, rows)
	for to, from := range perm {
		copy(nx.Row(to), d.X.Row(from))
		ny[to] = d.Y[from]
	}
	d.X = nx
	d.Y = ny
}

// NumBatches returns the number of size-sized mini-batches (last partial
// batch included).
func (d *Dataset) NumBatches(size int) int {
	if size <= 0 {
		return 0
	}
	return (d.X.Rows() + size - 1) / size
}

// Batch returns mini-batch i as its rows of d.X plus its labels. Both
// alias the dataset, as views (matrix.ViewRows and a subslice): the only
// allocation is the view's header, and a caller that writes to either
// writes to d.
func (d *Dataset) Batch(i, size int) (*matrix.Dense, []float64) {
	from := i * size
	to := from + size
	if to > d.X.Rows() {
		to = d.X.Rows()
	}
	return d.X.ViewRows(from, to), d.Y[from:to]
}

// Sparsity reports nnz/total of the feature matrix (Table 5 definition).
func (d *Dataset) Sparsity() float64 { return d.X.Sparsity() }
