package data

import (
	"math"
	"testing"
)

func TestGenerateAllDatasets(t *testing.T) {
	for _, name := range Names() {
		d, err := Generate(name, 500, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.X.Rows() != 500 {
			t.Errorf("%s: rows = %d", name, d.X.Rows())
		}
		wantCols, _ := DefaultCols(name)
		if d.X.Cols() != wantCols {
			t.Errorf("%s: cols = %d, want %d", name, d.X.Cols(), wantCols)
		}
		if len(d.Y) != 500 {
			t.Errorf("%s: labels = %d", name, len(d.Y))
		}
		for i, y := range d.Y {
			if y < 0 || y >= float64(d.Classes) || y != math.Trunc(y) {
				t.Fatalf("%s: label[%d] = %v outside 0..%d", name, i, y, d.Classes-1)
			}
		}
	}
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Fatal("unknown dataset should error")
	}
	if _, err := DefaultCols("nope"); err == nil {
		t.Fatal("unknown dataset should error in DefaultCols")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, _ := Generate("census", 200, 7)
	b, _ := Generate("census", 200, 7)
	if !a.X.Equal(b.X) {
		t.Fatal("same seed should reproduce X")
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed should reproduce Y")
		}
	}
	c, _ := Generate("census", 200, 8)
	if a.X.Equal(c.X) {
		t.Fatal("different seeds should differ")
	}
}

// Sparsity must land near the Table 5 targets.
func TestSparsityTargets(t *testing.T) {
	targets := map[string][2]float64{ // name -> [min, max] acceptable sparsity
		"census":   {0.33, 0.53},
		"imagenet": {0.21, 0.41},
		"mnist":    {0.15, 0.35},
		"kdd99":    {0.29, 0.49},
		"rcv1":     {0.0005, 0.004},
		"deep1b":   {0.999, 1.0},
	}
	for name, bounds := range targets {
		d, err := Generate(name, 2000, 3)
		if err != nil {
			t.Fatal(err)
		}
		s := d.Sparsity()
		if s < bounds[0] || s > bounds[1] {
			t.Errorf("%s: sparsity %.4f outside [%.4f, %.4f]", name, s, bounds[0], bounds[1])
		}
	}
}

func TestMnistHasTenClasses(t *testing.T) {
	d, _ := Generate("mnist", 3000, 2)
	if d.Classes != 10 {
		t.Fatalf("mnist classes = %d", d.Classes)
	}
	seen := map[float64]bool{}
	for _, y := range d.Y {
		seen[y] = true
	}
	if len(seen) < 8 {
		t.Fatalf("mnist labels cover only %d classes", len(seen))
	}
}

func TestBinaryLabelsBalanced(t *testing.T) {
	d, _ := Generate("census", 2000, 4)
	ones := 0
	for _, y := range d.Y {
		if y == 1 {
			ones++
		}
	}
	frac := float64(ones) / 2000
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("binary labels unbalanced: %.2f positive", frac)
	}
}

func TestShuffleOncePreservesPairs(t *testing.T) {
	d, _ := Generate("kdd99", 300, 5)
	// remember (row content -> label) pairs via a simple checksum
	type pair struct {
		sum float64
		y   float64
	}
	sums := make(map[pair]int)
	key := func(i int) pair {
		var s float64
		for j, v := range d.X.Row(i) {
			s += v * float64(j+1)
		}
		return pair{sum: s, y: d.Y[i]}
	}
	for i := 0; i < 300; i++ {
		sums[key(i)]++
	}
	d.ShuffleOnce(99)
	for i := 0; i < 300; i++ {
		sums[key(i)]--
	}
	for k, c := range sums {
		if c != 0 {
			t.Fatalf("shuffle broke row/label pairing: %v count %d", k, c)
		}
	}
}

func TestBatches(t *testing.T) {
	d, _ := Generate("kdd99", 105, 7)
	if got := d.NumBatches(25); got != 5 {
		t.Fatalf("NumBatches = %d, want 5", got)
	}
	if got := d.NumBatches(0); got != 0 {
		t.Fatalf("NumBatches(0) = %d", got)
	}
	x, y := d.Batch(4, 25) // last partial batch
	if x.Rows() != 5 || len(y) != 5 {
		t.Fatalf("last batch %d rows %d labels, want 5/5", x.Rows(), len(y))
	}
	x0, _ := d.Batch(0, 25)
	if x0.Rows() != 25 {
		t.Fatalf("first batch %d rows", x0.Rows())
	}
	// batch content matches the dataset rows
	for j := 0; j < d.X.Cols(); j++ {
		if x.At(0, j) != d.X.At(100, j) {
			t.Fatal("batch rows misaligned")
		}
	}
	// A batch is a view: it aliases the dataset's rows, as its labels do,
	// and a write through either shows in the other.
	x1, y1 := d.Batch(1, 25)
	if &x1.Data()[0] != &d.X.Row(25)[0] || &y1[0] != &d.Y[25] {
		t.Fatal("batch 1 is not a view of rows 25..49")
	}
	d.X.Set(30, 2, 123.5)
	if x1.At(5, 2) != 123.5 {
		t.Fatal("a write to the dataset does not show in its batch")
	}
	if n := testing.AllocsPerRun(100, func() { x1, y1 = d.Batch(3, 25) }); n != 1 {
		t.Fatalf("Batch allocates %v objects, want 1 (the view's header)", n)
	}
}

// The generators must produce the redundancy ordering the paper's Figure 5
// depends on: kdd99 most redundant, mnist least (among the moderate ones).
func TestRedundancyCharacter(t *testing.T) {
	distinctPairs := func(name string) float64 {
		d, _ := Generate(name, 1000, 11)
		seen := make(map[[2]float64]struct{})
		total := 0
		for i := 0; i < d.X.Rows(); i++ {
			for j, v := range d.X.Row(i) {
				if v != 0 {
					seen[[2]float64{float64(j), v}] = struct{}{}
					total++
				}
			}
		}
		return float64(len(seen)) / float64(total) // lower = more redundant
	}
	kdd := distinctPairs("kdd99")
	mnist := distinctPairs("mnist")
	if kdd >= mnist {
		t.Fatalf("kdd99 should be more redundant than mnist: %f vs %f", kdd, mnist)
	}
}
