package ml

import (
	"fmt"

	"toc/internal/matrix"
)

// SnapshotModel is a GradModel whose flat parameter vector can be
// exported, restored and cloned. This is what an asynchronous training
// driver (internal/engine's bounded-staleness mode) needs: the training
// loop owns the live model, and each worker owns a private clone
// whose parameters it refreshes from a versioned snapshot before every
// gradient, so gradient reads never race parameter writes.
//
// Params and SetParams use exactly the flat layout Grad writes and
// ApplyGrad consumes, so a parameter vector round-trips bit for bit:
// SetParams(Params()) is the identity, and a clone's Grad on the same
// snapshot is bitwise identical to the original model's. Every model
// NewModel returns implements SnapshotModel.
type SnapshotModel interface {
	GradModel
	// Params writes the current flat parameter vector into out, which
	// must have length NumParams().
	Params(out []float64)
	// SetParams overwrites the parameters from a flat vector laid out as
	// Params writes it.
	SetParams(p []float64)
	// Clone returns an independent model with identical parameters and
	// hyperparameters; mutating either side never affects the other.
	Clone() SnapshotModel
}

// checkParamsLen panics when a Params/SetParams buffer does not match the
// model's flat parameter count — silently truncating a snapshot would
// corrupt asynchronous training in ways that surface much later.
func checkParamsLen(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("ml: %s params buffer has %d elements, model has %d", name, got, want))
	}
}

// linParams is the shared [W..., B] export for the linear models.
func linParams(out, w []float64, b float64) {
	copy(out, w)
	out[len(w)] = b
}

// setLinParams is the shared [W..., B] import for the linear models.
func setLinParams(p, w []float64, b *float64) {
	copy(w, p)
	*b = p[len(w)]
}

// Params writes the flat [W..., B] vector.
func (m *LinReg) Params(out []float64) {
	checkParamsLen("LinReg", len(out), m.NumParams())
	linParams(out, m.W, m.B)
}

// SetParams restores the flat [W..., B] vector.
func (m *LinReg) SetParams(p []float64) {
	checkParamsLen("LinReg", len(p), m.NumParams())
	setLinParams(p, m.W, &m.B)
}

// Clone returns an independent copy with the same weights and knobs.
func (m *LinReg) Clone() SnapshotModel {
	c := *m
	c.W = append([]float64(nil), m.W...)
	c.step = nil
	return &c
}

// Params writes the flat [W..., B] vector.
func (m *LogReg) Params(out []float64) {
	checkParamsLen("LogReg", len(out), m.NumParams())
	linParams(out, m.W, m.B)
}

// SetParams restores the flat [W..., B] vector.
func (m *LogReg) SetParams(p []float64) {
	checkParamsLen("LogReg", len(p), m.NumParams())
	setLinParams(p, m.W, &m.B)
}

// Clone returns an independent copy with the same weights and knobs.
func (m *LogReg) Clone() SnapshotModel {
	c := *m
	c.W = append([]float64(nil), m.W...)
	c.step = nil
	return &c
}

// Params writes the flat [W..., B] vector.
func (m *SVM) Params(out []float64) {
	checkParamsLen("SVM", len(out), m.NumParams())
	linParams(out, m.W, m.B)
}

// SetParams restores the flat [W..., B] vector.
func (m *SVM) SetParams(p []float64) {
	checkParamsLen("SVM", len(p), m.NumParams())
	setLinParams(p, m.W, &m.B)
}

// Clone returns an independent copy with the same weights and knobs.
func (m *SVM) Clone() SnapshotModel {
	c := *m
	c.W = append([]float64(nil), m.W...)
	c.step = nil
	return &c
}

// snapshotModel asserts one per-class model supports snapshotting;
// NewOneVsRest only ever builds LogReg/SVM ensembles, which do. The
// per-element assertion keeps Params/SetParams allocation-free: the
// async engine calls Params under its run-wide lock on every gradient.
func snapshotModel(class int, m BinaryClassifier) SnapshotModel {
	sm, ok := m.(SnapshotModel)
	if !ok {
		panic(fmt.Sprintf("ml: one-vs-rest class %d model %T does not implement SnapshotModel", class, m))
	}
	return sm
}

// Params concatenates the per-class [W..., B] vectors in class order —
// the same layout Grad and ApplyGrad use. The length check accumulates
// in the walk rather than calling NumParams (which materializes a
// per-class slice): this runs under the async engine's run-wide lock on
// every gradient.
func (o *OneVsRest) Params(out []float64) {
	off := 0
	for c, m := range o.Models {
		sm := snapshotModel(c, m)
		np := sm.NumParams()
		if off+np > len(out) {
			checkParamsLen("OneVsRest", len(out), o.NumParams())
		}
		sm.Params(out[off : off+np])
		off += np
	}
	checkParamsLen("OneVsRest", len(out), off)
}

// SetParams restores every per-class slice of the concatenated vector.
func (o *OneVsRest) SetParams(p []float64) {
	off := 0
	for c, m := range o.Models {
		sm := snapshotModel(c, m)
		np := sm.NumParams()
		if off+np > len(p) {
			checkParamsLen("OneVsRest", len(p), o.NumParams())
		}
		sm.SetParams(p[off : off+np])
		off += np
	}
	checkParamsLen("OneVsRest", len(p), off)
}

// Clone clones every per-class model.
func (o *OneVsRest) Clone() SnapshotModel {
	c := &OneVsRest{Models: make([]BinaryClassifier, len(o.Models))}
	for i, m := range o.Models {
		clone := snapshotModel(i, m).Clone()
		bc, ok := clone.(BinaryClassifier)
		if !ok {
			panic(fmt.Sprintf("ml: one-vs-rest class %d clone %T is not a BinaryClassifier", i, clone))
		}
		c.Models[i] = bc
	}
	return c
}

// Params writes the layer-by-layer [dW0..., dB0..., dW1..., dB1..., ...]
// vector (dW row-major) — the same layout Grad and ApplyGrad use.
func (n *NN) Params(out []float64) {
	checkParamsLen("NN", len(out), n.NumParams())
	off := 0
	for l := range n.W {
		wd := n.W[l].Data()
		copy(out[off:off+len(wd)], wd)
		off += len(wd)
		copy(out[off:off+len(n.B[l])], n.B[l])
		off += len(n.B[l])
	}
}

// SetParams restores every layer's weights and biases.
func (n *NN) SetParams(p []float64) {
	checkParamsLen("NN", len(p), n.NumParams())
	off := 0
	for l := range n.W {
		wd := n.W[l].Data()
		copy(wd, p[off:off+len(wd)])
		off += len(wd)
		copy(n.B[l], p[off:off+len(n.B[l])])
		off += len(n.B[l])
	}
}

// Clone deep-copies every layer.
func (n *NN) Clone() SnapshotModel {
	c := *n
	c.Sizes = append([]int(nil), n.Sizes...)
	c.W = make([]*matrix.Dense, len(n.W))
	for l := range n.W {
		c.W[l] = n.W[l].Clone()
	}
	c.B = make([][]float64, len(n.B))
	for l := range n.B {
		c.B[l] = append([]float64(nil), n.B[l]...)
	}
	c.step = nil
	return &c
}
