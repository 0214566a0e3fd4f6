package ml

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"toc/internal/core"
	"toc/internal/data"
	"toc/internal/formats"
)

const (
	goldenBatch  = 50
	goldenEpochs = 2
	goldenLR     = 0.2
)

// goldenSource is the fixed seed-1 workload of the golden tests.
func goldenSource(t *testing.T, dataset, method string) (*data.Dataset, *MemorySource) {
	t.Helper()
	d, err := data.Generate(dataset, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(2)
	return d, NewMemorySource(d, goldenBatch, formats.MustGet(method))
}

func goldenModel(t *testing.T, name string, d *data.Dataset) Model {
	t.Helper()
	m, err := NewModel(name, d.X.Cols(), d.Classes, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func paramsCRC(m Model) uint32 {
	p := make([]float64, m.NumParams())
	m.Params(p)
	buf := make([]byte, 8*len(p))
	for i, v := range p {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return crc32.ChecksumIEEE(buf)
}

// The serial trajectories of every model family, pinned to constants
// captured at the commit before the three GLM structs were folded into
// Linear and Train took over Grad+ApplyGrad from the per-model Step (the
// two census/nn rows: at the commit before NN.Grad moved onto pooled
// scratch and the in-place dense kernels). The engine-vs-serial identity
// tests compare two drivers over the same model code, so an arithmetic
// slip common to both would pass them; this cannot: the CRC32 of the
// final flat parameters and the bits of every epoch loss must equal what
// the old code produced. The rows run through every compared scheme; the
// CLA rows were captured at the commit before CLA's kernels took a
// destination.
func TestGoldenSerialTrajectories(t *testing.T) {
	type golden struct {
		crc  uint32
		loss [goldenEpochs]uint64
	}
	want := map[string]golden{
		"census/linreg/TOC": {0xbd26bfc5, [goldenEpochs]uint64{0x3fb6de9a7ca65215, 0x3fa6f9a622c4a15c}},
		"census/lr/TOC":     {0xf41529c3, [goldenEpochs]uint64{0x3fe3f45dac654033, 0x3fe00388b63f8533}},
		"census/svm/TOC":    {0xadac70a1, [goldenEpochs]uint64{0x3fe5e30f8ad27780, 0x3fd16a9687054966}},
		"census/nn/TOC":     {0x9380ae2a, [goldenEpochs]uint64{0x3fe65d77bac1b8e1, 0x3fe62ec3bc6aadc0}},
		"census/linreg/DEN": {0x69bbc7c9, [goldenEpochs]uint64{0x3fb6de9a7ca65215, 0x3fa6f9a622c4a15d}},
		"census/lr/DEN":     {0x42d39c96, [goldenEpochs]uint64{0x3fe3f45dac654033, 0x3fe00388b63f8533}},
		"census/svm/DEN":    {0xc6265fa9, [goldenEpochs]uint64{0x3fe5e30f8ad27780, 0x3fd16a9687054966}},
		"census/nn/DEN":     {0xcf595754, [goldenEpochs]uint64{0x3fe65d77bac1b8e1, 0x3fe62ec3bc6aadc0}},
		"mnist/lr/TOC":      {0x8b532dac, [goldenEpochs]uint64{0x3fdfa0344a2225e0, 0x3fd4c111cb1606af}},
		"mnist/svm/TOC":     {0x9f285a86, [goldenEpochs]uint64{0x3fd915acc3e4c794, 0x3fca5f6f13a00ba5}},
		"mnist/nn/TOC":      {0x9b63f5da, [goldenEpochs]uint64{0x4001d0806b986743, 0x40009282ef19e311}},
		"mnist/lr/DEN":      {0x88627320, [goldenEpochs]uint64{0x3fdfa0344a2225e0, 0x3fd4c111cb1606af}},
		"mnist/svm/DEN":     {0xf2f7e2c6, [goldenEpochs]uint64{0x3fd915acc3e4c794, 0x3fca5f6f13a00ba5}},
		"mnist/nn/DEN":      {0xf04321f6, [goldenEpochs]uint64{0x4001d0806b986743, 0x40009282ef19e311}},
		"census/linreg/CLA": {0xad3ebc4f, [goldenEpochs]uint64{0x3fb6de9a7ca65215, 0x3fa6f9a622c4a15d}},
		"census/lr/CLA":     {0x615695cf, [goldenEpochs]uint64{0x3fe3f45dac654033, 0x3fe00388b63f8533}},
		"census/svm/CLA":    {0x24e9df75, [goldenEpochs]uint64{0x3fe5e30f8ad27781, 0x3fd16a9687054966}},
		"census/nn/CLA":     {0xa00ee804, [goldenEpochs]uint64{0x3fe65d77bac1b8e1, 0x3fe62ec3bc6aadc0}},
		"mnist/lr/CLA":      {0xcab30c43, [goldenEpochs]uint64{0x3fdfa0344a2225e0, 0x3fd4c111cb1606af}},
		"mnist/svm/CLA":     {0x037eb890, [goldenEpochs]uint64{0x3fd915acc3e4c794, 0x3fca5f6f13a00ba5}},
		"mnist/nn/CLA":      {0xff87e8cb, [goldenEpochs]uint64{0x4001d0806b986743, 0x40009282ef19e311}},
	}
	// CSR, CVI, DVI, Snappy and Gzip multiply bit for bit as DEN does, so
	// their trajectories are DEN's; CLA and TOC fold in their own orders.
	ref := func(method string) string {
		switch method {
		case "CSR", "CVI", "DVI", "Snappy", "Gzip":
			return "DEN"
		}
		return method
	}
	var got []string
	for _, ds := range []struct {
		dataset string
		models  []string
	}{
		{"census", []string{"linreg", "lr", "svm", "nn"}}, // binary GLMs and the NN's single sigmoid output
		{"mnist", []string{"lr", "svm", "nn"}},            // one-vs-rest and softmax
	} {
		for _, method := range formats.PaperMethods() {
			d, src := goldenSource(t, ds.dataset, method)
			for _, name := range ds.models {
				m := goldenModel(t, name, d)
				res := Train(m, src, goldenEpochs, goldenLR, nil)
				g := golden{crc: paramsCRC(m)}
				for e, l := range res.EpochLoss {
					g.loss[e] = math.Float64bits(l)
				}
				key := ds.dataset + "/" + name + "/" + method
				got = append(got, fmt.Sprintf("%q: {%#08x, [goldenEpochs]uint64{%#x, %#x}},", key, g.crc, g.loss[0], g.loss[1]))
				if w := want[ds.dataset+"/"+name+"/"+ref(method)]; g != w {
					t.Errorf("%s: trajectory changed: got %+v, want %+v", key, g, w)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("observed:\n%s", strings.Join(got, "\n"))
	}
}

// Serial training pays one decode-tree build per step for every model —
// including one-vs-rest, which used to step its per-class models one by
// one (10 builds per mnist batch) while every engine built the tree once.
func TestSerialTrainBuildsDecodeTreeOncePerStep(t *testing.T) {
	d, src := goldenSource(t, "mnist", "TOC")
	for _, name := range []string{"lr", "svm"} {
		m := goldenModel(t, name, d)
		before := core.TreeBuilds()
		Train(m, src, goldenEpochs, goldenLR, nil)
		if got, want := core.TreeBuilds()-before, uint64(goldenEpochs*src.NumBatches()); got != want {
			t.Errorf("%s: %d decode-tree builds over %d steps, want one per step", name, got, want)
		}
	}
}

// Loss and Grad share one residual function, so the loss a gradient
// reports is bitwise the loss Loss evaluates on the same batch, for one
// output column (census) and for ten (mnist one-vs-rest).
func TestLossIsGradLossBitwise(t *testing.T) {
	for _, dataset := range []string{"census", "mnist"} {
		for _, method := range []string{"TOC", "DEN"} {
			d, src := goldenSource(t, dataset, method)
			x, y := src.Batch(1)
			for _, name := range []string{"linreg", "lr", "svm"} {
				m := goldenModel(t, name, d)
				Train(m, src, 1, goldenLR, nil) // move off the zero point
				g := make([]float64, m.NumParams())
				gradLoss, loss := m.Grad(x, y, g), m.Loss(x, y)
				if math.Float64bits(gradLoss) != math.Float64bits(loss) {
					t.Errorf("%s/%s/%s: Grad loss %v != Loss %v", dataset, name, method, gradLoss, loss)
				}
			}
		}
	}
}
