package ml

import (
	"fmt"
	"math"
	"math/rand"

	"toc/internal/formats"
	"toc/internal/matrix"
)

// NN is the paper's feed-forward neural network (§5.3): hidden layers with
// sigmoid activations, and a sigmoid output for binary targets or a
// softmax output with cross-entropy for multi-class targets.
//
// The input layer touches the compressed mini-batch through exactly two
// ops: the forward pass uses A·M (Algorithm 7) and the input-weight
// gradient uses M·A (Algorithm 8) — the Table 1 usage for neural networks.
type NN struct {
	// Sizes lists layer widths from input to output, e.g. [900 200 50 10].
	Sizes []int
	// W[l] is the Sizes[l] × Sizes[l+1] weight matrix of layer l.
	W []*matrix.Dense
	// B[l] is the bias vector of layer l (length Sizes[l+1]).
	B [][]float64
	// Classes is the number of classes (2 with a single sigmoid output).
	Classes int
	// Workers is the goroutine count the compressed input-layer kernels
	// (A·M forward, M·A backward) may use; 0 or 1 = sequential. Parallel
	// kernels are bitwise identical, so it changes wall-clock only.
	Workers int
}

// SetKernelWorkers sets the per-kernel goroutine count.
func (n *NN) SetKernelWorkers(workers int) { n.Workers = workers }

// NewNN builds a network with the given hidden layer widths for an input
// of dims features. For classes == 2 the output is one sigmoid unit; for
// classes > 2 it is a softmax over classes units. Weights use scaled
// Gaussian init seeded deterministically.
func NewNN(dims int, hidden []int, classes int, seed int64) *NN {
	out := 1
	if classes > 2 {
		out = classes
	}
	sizes := append([]int{dims}, hidden...)
	sizes = append(sizes, out)
	rng := rand.New(rand.NewSource(seed))
	n := &NN{Sizes: sizes, Classes: classes}
	for l := 0; l+1 < len(sizes); l++ {
		w := matrix.NewDense(sizes[l], sizes[l+1])
		scale := 1 / math.Sqrt(float64(sizes[l]))
		for i := 0; i < sizes[l]; i++ {
			for j := 0; j < sizes[l+1]; j++ {
				w.Set(i, j, rng.NormFloat64()*scale)
			}
		}
		n.W = append(n.W, w)
		n.B = append(n.B, make([]float64, sizes[l+1]))
	}
	return n
}

// forward runs the network on a compressed batch, returning the
// post-activation output of every layer (acts[0] is the first hidden
// layer; the input stays compressed). plan is the caller's planFor(x):
// the input-layer A·M runs on it, so Grad's backward M·A reuses the same
// decode-tree build.
func (n *NN) forward(x formats.CompressedMatrix, plan formats.KernelPlan) []*matrix.Dense {
	acts := make([]*matrix.Dense, len(n.W))
	var h *matrix.Dense
	for l := range n.W {
		var z *matrix.Dense
		if l == 0 {
			z = mulMat(x, plan, n.W[0], n.Workers) // A·M on the compressed input
		} else {
			z = h.MulMat(n.W[l])
		}
		addBias(z, n.B[l])
		if l == len(n.W)-1 {
			n.outputActivation(z)
		} else {
			z.ApplyInPlace(sigmoid)
		}
		acts[l] = z
		h = z
	}
	return acts
}

func addBias(z *matrix.Dense, b []float64) {
	for i := 0; i < z.Rows(); i++ {
		row := z.Row(i)
		for j := range row {
			row[j] += b[j]
		}
	}
}

// outputActivation applies sigmoid (binary) or row-softmax (multi-class).
func (n *NN) outputActivation(z *matrix.Dense) {
	if n.Classes <= 2 {
		z.ApplyInPlace(sigmoid)
		return
	}
	for i := 0; i < z.Rows(); i++ {
		row := z.Row(i)
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - max)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// oneHot expands class ids into the network's target matrix.
func (n *NN) oneHot(y []float64) *matrix.Dense {
	out := n.Sizes[len(n.Sizes)-1]
	t := matrix.NewDense(len(y), out)
	for i, yi := range y {
		if out == 1 {
			t.Set(i, 0, yi)
		} else {
			t.Set(i, int(yi), 1)
		}
	}
	return t
}

func columnSums(d *matrix.Dense) []float64 {
	s := make([]float64, d.Cols())
	for i := 0; i < d.Rows(); i++ {
		for j, v := range d.Row(i) {
			s[j] += v
		}
	}
	return s
}

// crossEntropy computes the mean cross-entropy of predictions vs targets.
func (n *NN) crossEntropy(p, t *matrix.Dense) float64 {
	var loss float64
	rows := p.Rows()
	if n.Classes <= 2 {
		for i := 0; i < rows; i++ {
			pi := clampProb(p.At(i, 0))
			yi := t.At(i, 0)
			loss += -(yi*math.Log(pi) + (1-yi)*math.Log(1-pi))
		}
	} else {
		for i := 0; i < rows; i++ {
			for j := 0; j < p.Cols(); j++ {
				if t.At(i, j) == 1 {
					loss += -math.Log(clampProb(p.At(i, j)))
				}
			}
		}
	}
	return loss / float64(rows)
}

// output runs the forward pass on a plan of its own and returns the last
// layer's activations.
func (n *NN) output(x formats.CompressedMatrix) *matrix.Dense {
	plan := planFor(x)
	defer releasePlan(plan)
	acts := n.forward(x, plan)
	return acts[len(acts)-1]
}

// Loss evaluates mean cross-entropy without updating.
func (n *NN) Loss(x formats.CompressedMatrix, y []float64) float64 {
	return n.crossEntropy(n.output(x), n.oneHot(y))
}

// Predict returns class ids (argmax for softmax, 0.5 threshold for the
// binary sigmoid output).
func (n *NN) Predict(x formats.CompressedMatrix) []float64 {
	out := n.output(x)
	pred := make([]float64, out.Rows())
	if n.Classes <= 2 {
		for i := range pred {
			if out.At(i, 0) > 0.5 {
				pred[i] = 1
			}
		}
		return pred
	}
	for i := range pred {
		best, bestV := 0, out.At(i, 0)
		for j := 1; j < out.Cols(); j++ {
			if v := out.At(i, j); v > bestV {
				best, bestV = j, v
			}
		}
		pred[i] = float64(best)
	}
	return pred
}

// NumParams sums every layer's weight matrix and bias vector.
func (n *NN) NumParams() int {
	total := 0
	for l := range n.W {
		total += n.Sizes[l]*n.Sizes[l+1] + n.Sizes[l+1]
	}
	return total
}

// Grad runs one forward/backward pass without updating, writing the flat
// gradient laid out layer by layer as [dW0..., dB0..., dW1..., dB1...,
// ...] (dW row-major). One kernel plan spans the input layer's forward
// A·M and backward M·A, so the step builds the batch's decode tree once.
func (n *NN) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	if x.Rows() != len(y) {
		panic(fmt.Sprintf("ml: NN batch %d rows but %d labels", x.Rows(), len(y)))
	}
	plan := planFor(x)
	acts := n.forward(x, plan)
	outAct := acts[len(acts)-1]
	target := n.oneHot(y)
	loss := n.crossEntropy(outAct, target)

	// Layer l's slice of out starts after all earlier layers.
	offs := make([]int, len(n.W))
	off := 0
	for l := range n.W {
		offs[l] = off
		off += n.Sizes[l]*n.Sizes[l+1] + n.Sizes[l+1]
	}

	nRows := float64(x.Rows())
	// For sigmoid+CE and softmax+CE alike: delta_out = (P − T)/n.
	delta := outAct.Sub(target)
	delta.ScaleInPlace(1 / nRows)

	for l := len(n.W) - 1; l >= 0; l-- {
		var dW *matrix.Dense
		if l == 0 {
			// dW0 = Aᵀ·delta = (deltaᵀ·A)ᵀ — M·A on the compressed input.
			dW = matMul(x, plan, delta.Transpose(), n.Workers).Transpose()
		} else {
			dW = acts[l-1].Transpose().MulMat(delta)
		}
		db := columnSums(delta)
		if l > 0 {
			back := delta.MulMat(n.W[l].Transpose())
			h := acts[l-1]
			for i := 0; i < back.Rows(); i++ {
				br := back.Row(i)
				hr := h.Row(i)
				for j := range br {
					br[j] *= hr[j] * (1 - hr[j]) // sigmoid'
				}
			}
			delta = back
		}
		wlen := n.Sizes[l] * n.Sizes[l+1]
		copy(out[offs[l]:offs[l]+wlen], dW.Data())
		copy(out[offs[l]+wlen:offs[l]+wlen+len(db)], db)
	}
	releasePlan(plan)
	return loss
}

// ApplyGrad subtracts lr·g from every layer's weights and biases.
func (n *NN) ApplyGrad(g []float64, lr float64) {
	off := 0
	for l := range n.W {
		wd := n.W[l].Data()
		for j := range wd {
			wd[j] -= lr * g[off+j]
		}
		off += len(wd)
		for j := range n.B[l] {
			n.B[l][j] -= lr * g[off+j]
		}
		off += len(n.B[l])
	}
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
func (n *NN) Clone() Model {
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
	return &c
}
