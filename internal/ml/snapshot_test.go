package ml

import (
	"math"
	"testing"

	"toc/internal/data"
	"toc/internal/formats"
)

// snapshotFixture trains a model a little so its parameters are away from
// the initial point, then returns it with one batch to probe gradients.
func snapshotFixture(t *testing.T, name string) (Model, formats.CompressedMatrix, []float64) {
	t.Helper()
	d, err := data.Generate("mnist", 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(4)
	src := NewMemorySource(d, 50, formats.MustGet("TOC"))
	m, err := NewModel(name, d.X.Cols(), d.Classes, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	Train(m, src, 1, 0.2, nil)
	x, y := src.Batch(1)
	return m, x, y
}

var snapshotModelNames = []string{"linreg", "lr", "svm", "nn"}

// Params/SetParams must round-trip bit for bit through a fresh model of
// the same shape: the restored model's gradient on any batch is bitwise
// identical to the original's.
func TestSnapshotParamsRoundTrip(t *testing.T) {
	for _, name := range snapshotModelNames {
		sm, x, y := snapshotFixture(t, name)
		np := sm.NumParams()
		p := make([]float64, np)
		sm.Params(p)

		fresh := sm.Clone() // same shape; parameters overwritten below
		zero := make([]float64, np)
		fresh.SetParams(zero)
		fresh.SetParams(p)

		back := make([]float64, np)
		fresh.Params(back)
		for i := range p {
			if math.Float64bits(p[i]) != math.Float64bits(back[i]) {
				t.Errorf("%s: param %d round-trips %v -> %v", name, i, p[i], back[i])
				break
			}
		}

		g1 := make([]float64, np)
		g2 := make([]float64, np)
		l1 := sm.Grad(x, y, g1)
		l2 := fresh.Grad(x, y, g2)
		if math.Float64bits(l1) != math.Float64bits(l2) {
			t.Errorf("%s: restored model loss %v != original %v", name, l2, l1)
		}
		for i := range g1 {
			if math.Float64bits(g1[i]) != math.Float64bits(g2[i]) {
				t.Errorf("%s: restored model gradient diverges at %d: %v != %v", name, i, g2[i], g1[i])
				break
			}
		}
	}
}

// A clone must be fully independent: updating the original never moves
// the clone, and vice versa.
func TestSnapshotCloneIndependence(t *testing.T) {
	for _, name := range snapshotModelNames {
		sm, x, y := snapshotFixture(t, name)
		np := sm.NumParams()
		clone := sm.Clone()

		before := make([]float64, np)
		clone.Params(before)

		g := make([]float64, np)
		sm.Grad(x, y, g)
		sm.ApplyGrad(g, 0.5) // move the original only

		after := make([]float64, np)
		clone.Params(after)
		for i := range before {
			if before[i] != after[i] {
				t.Errorf("%s: clone moved with the original at param %d", name, i)
				break
			}
		}

		orig := make([]float64, np)
		sm.Params(orig)
		clone.ApplyGrad(g, 0.5) // move the clone only
		now := make([]float64, np)
		sm.Params(now)
		for i := range orig {
			if orig[i] != now[i] {
				t.Errorf("%s: original moved with the clone at param %d", name, i)
				break
			}
		}
	}
}

// A clone refreshed from a snapshot computes the same gradient as the
// model the snapshot was taken from — the async engine's worker contract.
func TestSnapshotCloneTracksPublishedParams(t *testing.T) {
	for _, name := range snapshotModelNames {
		sm, x, y := snapshotFixture(t, name)
		np := sm.NumParams()
		clone := sm.Clone()

		// Move the original a few steps past the clone, snapshot, refresh.
		g := make([]float64, np)
		for i := 0; i < 3; i++ {
			sm.Grad(x, y, g)
			sm.ApplyGrad(g, 0.1)
		}
		snap := make([]float64, np)
		sm.Params(snap)
		clone.SetParams(snap)

		g1 := make([]float64, np)
		g2 := make([]float64, np)
		l1 := sm.Grad(x, y, g1)
		l2 := clone.Grad(x, y, g2)
		if math.Float64bits(l1) != math.Float64bits(l2) {
			t.Errorf("%s: refreshed clone loss %v != original %v", name, l2, l1)
		}
		for i := range g1 {
			if math.Float64bits(g1[i]) != math.Float64bits(g2[i]) {
				t.Errorf("%s: refreshed clone gradient diverges at %d", name, i)
				break
			}
		}
	}
}
