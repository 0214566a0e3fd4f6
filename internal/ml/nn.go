package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

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

// nnScratch is the working memory of one forward/backward pass: the
// post-activation output of every layer, the delta of every layer, and
// the two transposes the input layer's M·A still needs. It comes from a
// pool, not from the NN: the sync engine's workers call Grad on one
// replica concurrently.
type nnScratch struct {
	acts  []*matrix.Dense // acts[l] is rows × Sizes[l+1]; acts[0] is the first hidden layer
	delta []*matrix.Dense // delta[l] = ∂loss/∂(layer l's pre-activation), rows × Sizes[l+1]
	dT    matrix.Dense    // delta[0]ᵀ, the M of M·A
	dW0T  matrix.Dense    // M·A's result, dW0ᵀ
}

var nnScratchPool = sync.Pool{New: func() any { return new(nnScratch) }}

// forward runs the network on a compressed batch, filling sc.acts with
// every layer's post-activation output (the input stays compressed), and
// returns the last one. plan is the caller's x.NewKernelPlan(): the
// input-layer A·M runs on it, so Grad's backward M·A reuses the same
// decode-tree build. Grad, Loss and Predict all run this one body.
func (n *NN) forward(sc *nnScratch, x formats.CompressedMatrix, plan formats.KernelPlan) *matrix.Dense {
	for len(sc.acts) < len(n.W) {
		sc.acts = append(sc.acts, new(matrix.Dense))
		sc.delta = append(sc.delta, new(matrix.Dense))
	}
	rows := x.Rows()
	var h *matrix.Dense
	for l := range n.W {
		z := sc.acts[l]
		if l == 0 {
			z = plan.MulMatInto(z.Reshape(rows, n.Sizes[1]), n.W[0], n.Workers) // A·M on the compressed input
		} else {
			matrix.MulInto(z.Reshape(rows, n.Sizes[l+1]).Data(), h, n.W[l])
		}
		addBias(z, n.B[l])
		if l == len(n.W)-1 {
			n.outputActivation(z)
		} else {
			z.ApplyInPlace(sigmoid)
		}
		sc.acts[l] = z
		h = z
	}
	return h
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

// lossDelta returns the mean cross-entropy of the output activations p
// against the class ids y and, when delta is non-nil, writes the output
// layer's delta into it in the same pass: (P − T)/n for sigmoid+CE and
// softmax+CE alike, T being the target (y itself for the single sigmoid
// unit, the one-hot row of y otherwise).
func (n *NN) lossDelta(p *matrix.Dense, y []float64, delta *matrix.Dense) float64 {
	var loss float64
	inv := 1 / float64(len(y))
	for i, yi := range y {
		row := p.Row(i)
		hot := 0 // the column whose target is yi's (binary) or 1 (one-hot)
		if n.Classes <= 2 {
			pi := clampProb(row[0])
			loss += crossEntropy(yi, pi)
		} else {
			hot = int(yi)
			loss += -math.Log(clampProb(row[hot]))
			yi = 1
		}
		if delta != nil {
			d := delta.Row(i)
			for j, v := range row {
				d[j] = v * inv // (v − 0)·inv
			}
			d[hot] = (row[hot] - yi) * inv
		}
	}
	return loss / float64(len(y))
}

// Loss evaluates mean cross-entropy without updating.
func (n *NN) Loss(x formats.CompressedMatrix, y []float64) float64 {
	sc := nnScratchPool.Get().(*nnScratch)
	defer nnScratchPool.Put(sc)
	plan := x.NewKernelPlan()
	defer plan.Release()
	return n.lossDelta(n.forward(sc, x, plan), y, nil)
}

// Predict returns class ids (argmax for softmax, 0.5 threshold for the
// binary sigmoid output).
func (n *NN) Predict(x formats.CompressedMatrix) []float64 {
	sc := nnScratchPool.Get().(*nnScratch)
	defer nnScratchPool.Put(sc)
	plan := x.NewKernelPlan()
	defer plan.Release()
	out := n.forward(sc, x, plan)
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
// Every product lands in pooled scratch or directly in out, so a
// steady-state call on a planned encoding allocates nothing.
func (n *NN) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	if x.Rows() != len(y) {
		panic(fmt.Sprintf("ml: NN batch %d rows but %d labels", x.Rows(), len(y)))
	}
	sc := nnScratchPool.Get().(*nnScratch)
	defer nnScratchPool.Put(sc)
	plan := x.NewKernelPlan()
	defer plan.Release()

	rows, last := x.Rows(), len(n.W)-1
	outAct := n.forward(sc, x, plan)
	loss := n.lossDelta(outAct, y, sc.delta[last].Reshape(rows, n.Sizes[last+1]))

	off := n.NumParams() // layer l's slice of out ends where layer l+1's starts
	for l := last; l >= 0; l-- {
		delta := sc.delta[l]
		in, width := n.Sizes[l], n.Sizes[l+1]
		off -= in*width + width
		layer := out[off : off+in*width+width]
		dW, db := layer[:in*width], layer[in*width:]
		if l == 0 {
			// dW0 = Aᵀ·delta = (deltaᵀ·A)ᵀ — M·A on the compressed input.
			delta.TransposeInto(sc.dT.Reshape(width, rows).Data())
			plan.MatMulInto(sc.dW0T.Reshape(width, in), &sc.dT, n.Workers).TransposeInto(dW)
		} else {
			matrix.MulATBInto(dW, sc.acts[l-1], delta)
		}
		clear(db)
		for i := 0; i < rows; i++ {
			for j, v := range delta.Row(i) {
				db[j] += v
			}
		}
		if l > 0 {
			back, h := sc.delta[l-1].Reshape(rows, in), sc.acts[l-1]
			matrix.MulABTInto(back.Data(), delta, n.W[l])
			bd := back.Data()
			for j, hv := range h.Data() {
				bd[j] *= hv * (1 - hv) // sigmoid'
			}
		}
	}
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
