package toc

// Micro-benchmarks for the core TOC pipeline: compress, decode, and the
// four multiplication kernels against CSR, DEN and CLA. End-to-end costs
// are measured by benchmark/, single-core kernel speed against DEN by
// internal/formats' BenchmarkKernelsVsDEN.

import (
	"math/rand"
	"testing"

	"toc/internal/bitpack"
	"toc/internal/formats"
	"toc/internal/matrix"
)

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
			c.NewKernelPlan().MulVecInto(nil, v, 1)
		}
	})
	b.Run("VecMul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.NewKernelPlan().VecMulInto(nil, u, 1)
		}
	})
	b.Run("MulMat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.NewKernelPlan().MulMatInto(nil, mr, 1)
		}
	})
	b.Run("MatMul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.NewKernelPlan().MatMulInto(nil, ml, 1)
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
