package ml

import (
	"math"
	"sync"
	"testing"

	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/matrix"
	"toc/internal/testutil"
)

// nnBatch is one mnist batch under the given encoding and a two-hidden-
// layer network on it; 250 rows and 200/50 are the benchmark workloads'
// step.
func nnBatch(tb testing.TB, method string, rows int, hidden ...int) (formats.CompressedMatrix, []float64, *NN) {
	tb.Helper()
	d, err := data.Generate("mnist", rows, 3)
	if err != nil {
		tb.Fatal(err)
	}
	x, y := d.Batch(0, rows)
	return formats.MustGet(method)(x), y, NewNN(x.Cols(), hidden, d.Classes, 1)
}

// TestNNGradAllocs pins NN.Grad's steady state on a TOC batch: beside
// what the plan's own two matrix kernels allocate at that worker count
// (nothing sequentially; the panel goroutines at 2), a gradient allocates
// nothing — activations, deltas and the input layer's two transposes
// come from the pooled scratch, dW and db are written straight into out.
func TestNNGradAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pool-hit pin cannot hold")
	}
	c, y, n := nnBatch(t, "TOC", 250, 200, 50)
	out := make([]float64, n.NumParams())
	for _, workers := range []int{1, 2} {
		n.SetKernelWorkers(workers)
		n.Grad(c, y, out) // warms the plan, kernel and scratch pools
		// The plan's own bill: build, A·M and M·A into reused matrices, release.
		var h, dW0T matrix.Dense
		m := matrix.NewDense(n.Sizes[1], c.Rows())
		planOnly := testing.AllocsPerRun(20, func() {
			plan := c.NewKernelPlan()
			plan.MulMatInto(h.Reshape(c.Rows(), n.Sizes[1]), n.W[0], workers)
			plan.MatMulInto(dW0T.Reshape(n.Sizes[1], c.Cols()), m, workers)
			plan.Release()
		})
		if got := testing.AllocsPerRun(20, func() { n.Grad(c, y, out) }); got != planOnly {
			t.Errorf("workers=%d: Grad allocates %.0f objects/op, its two plan kernels alone %.0f", workers, got, planOnly)
		}
		if workers == 1 && planOnly != 0 {
			t.Errorf("sequential plan kernels allocate %.0f objects/op, want 0", planOnly)
		}
	}
}

// The sync engine's workers call Grad on one replica at once, which is
// why the scratch is pooled per call and not a field of NN: concurrent
// gradients on a shared *NN are each bit-equal to a serial one.
func TestNNGradConcurrentOnSharedReplica(t *testing.T) {
	for _, method := range []string{"TOC", "DEN"} {
		c, y, n := nnBatch(t, method, 64, 24, 12) // small: it runs under -race -count=10
		want := make([]float64, n.NumParams())
		wantLoss := n.Grad(c, y, want)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]float64, n.NumParams())
				for i := 0; i < 50; i++ {
					for j := range out {
						out[j] = math.NaN() // Grad must overwrite every coordinate
					}
					if loss := n.Grad(c, y, out); math.Float64bits(loss) != math.Float64bits(wantLoss) {
						t.Errorf("%s: concurrent loss %v, serial %v", method, loss, wantLoss)
						return
					}
					for j := range out {
						if math.Float64bits(out[j]) != math.Float64bits(want[j]) {
							t.Errorf("%s: concurrent gradient coord %d = %v, serial %v", method, j, out[j], want[j])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// Loss and Predict run Grad's forward body: the loss agrees bitwise.
func TestNNLossIsGradLossBitwise(t *testing.T) {
	for _, method := range []string{"TOC", "DEN"} {
		c, y, n := nnBatch(t, method, 64, 24, 12)
		out := make([]float64, n.NumParams())
		if g, l := n.Grad(c, y, out), n.Loss(c, y); math.Float64bits(g) != math.Float64bits(l) {
			t.Errorf("%s: Grad loss %v != Loss %v", method, g, l)
		}
	}
}

// BenchmarkNNGrad is one NN gradient of the ram_nn_sync / dist_nn_topk
// workloads (mnist, 250 rows, 200/50 hidden, 10 classes).
func BenchmarkNNGrad(b *testing.B) {
	for _, method := range []string{"TOC", "DEN"} {
		b.Run(method, func(b *testing.B) {
			c, y, n := nnBatch(b, method, 250, 200, 50)
			out := make([]float64, n.NumParams())
			n.Grad(c, y, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Grad(c, y, out)
			}
		})
	}
}
