package toc

// One benchmark per paper table and figure (deliverable d): each wraps the
// corresponding internal/bench experiment runner, so `go test -bench=.`
// regenerates every artifact. cmd/tocbench prints the same tables with
// full control over scale; benchmark/README.md records measured-vs-paper.
//
// Micro-benchmarks for the core TOC pipeline (compress, decompress, the
// four multiplication kernels vs CSR/DEN) follow the experiment wrappers.

import (
	"math/rand"
	"testing"

	"toc/internal/bench"
	"toc/internal/bitpack"
	"toc/internal/formats"
	"toc/internal/matrix"
)

// runExperiment executes a paper artifact reproduction b.N times.
func runExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := bench.DefaultConfig()
	cfg.Scale = scale
	cfg.Dir = b.TempDir()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MGDConvergence(b *testing.B)    { runExperiment(b, "fig2", 0.5) }
func BenchmarkFig5CompressionRatios(b *testing.B) { runExperiment(b, "fig5", 1) }
func BenchmarkFig6Ablation(b *testing.B)          { runExperiment(b, "fig6", 1) }
func BenchmarkFig7LargeBatches(b *testing.B)      { runExperiment(b, "fig7", 0.5) }
func BenchmarkFig8MatOps(b *testing.B)            { runExperiment(b, "fig8", 1) }
func BenchmarkFig9RuntimeVsSize(b *testing.B)     { runExperiment(b, "fig9", 0.25) }
func BenchmarkFig10MGDAblation(b *testing.B)      { runExperiment(b, "fig10", 0.25) }
func BenchmarkFig11AccuracyVsTime(b *testing.B)   { runExperiment(b, "fig11", 0.25) }
func BenchmarkFig12CodecSpeed(b *testing.B)       { runExperiment(b, "fig12", 1) }
func BenchmarkTable6EndToEnd(b *testing.B)        { runExperiment(b, "table6", 0.25) }
func BenchmarkTable7EndToEnd(b *testing.B)        { runExperiment(b, "table7", 0.25) }

// --- micro-benchmarks on a census-like 250-row mini-batch ---

func benchBatch(b *testing.B) *matrix.Dense {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	d := matrix.NewDense(250, 68)
	pool := []float64{0.25, 0.5, 1, 2, 3}
	templates := make([][]float64, 4)
	for t := range templates {
		row := make([]float64, 68)
		for j := range row {
			if rng.Float64() < 0.43 {
				row[j] = pool[rng.Intn(len(pool))]
			}
		}
		templates[t] = row
	}
	for i := 0; i < 250; i++ {
		copy(d.Row(i), templates[rng.Intn(len(templates))])
	}
	return d
}

func BenchmarkTOCCompress(b *testing.B) {
	m := benchBatch(b)
	b.SetBytes(int64(m.SerializedSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(m)
	}
}

func BenchmarkTOCDecode(b *testing.B) {
	c := Compress(benchBatch(b))
	b.SetBytes(int64(c.UncompressedSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decode()
	}
}

func benchKernels(b *testing.B, method string) {
	m := benchBatch(b)
	c := formats.MustGet(method)(m)
	rng := rand.New(rand.NewSource(7))
	v := make([]float64, m.Cols())
	u := make([]float64, m.Rows())
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	mr := matrix.NewDense(m.Cols(), 20)
	ml := matrix.NewDense(20, m.Rows())
	b.Run("MulVec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.MulVec(v)
		}
	})
	b.Run("VecMul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.VecMul(u)
		}
	})
	b.Run("MulMat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.MulMat(mr)
		}
	})
	b.Run("MatMul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.MatMul(ml)
		}
	})
	b.Run("Scale", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Scale(1.01)
		}
	})
}

func BenchmarkKernelsTOC(b *testing.B) { benchKernels(b, "TOC") }
func BenchmarkKernelsCSR(b *testing.B) { benchKernels(b, "CSR") }
func BenchmarkKernelsDEN(b *testing.B) { benchKernels(b, "DEN") }
func BenchmarkKernelsCLA(b *testing.B) { benchKernels(b, "CLA") }

// BenchmarkVarintVsBitpack is the §3.2 "future work" ablation: varint
// against fixed-width bit packing on TOC-shaped index arrays.
func BenchmarkVarintVsBitpack(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	// Node-index-like distribution: mostly small values, occasional large.
	vals := make([]uint32, 10000)
	for i := range vals {
		if rng.Intn(20) == 0 {
			vals[i] = uint32(rng.Intn(1 << 18))
		} else {
			vals[i] = uint32(rng.Intn(300))
		}
	}
	b.Run("bitpack", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			size = bitpack.Pack(vals).EncodedSize()
		}
		b.ReportMetric(float64(size), "bytes")
	})
	b.Run("varint", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			size = len(bitpack.PackVarint(vals))
		}
		b.ReportMetric(float64(size), "bytes")
	})
}
