package core

import (
	"math/rand"
	"testing"
)

// Before/after benchmarks for the physical codec hot paths: buildImage
// (Serialize on a batch whose image is stale — the spill-ingest cost) and
// Deserialize (the spill-read decode cost). The exact-size preallocation
// plus bulk little-endian section writes cut both allocations and copies
// versus the historical append-per-element loops.

func benchVariantBatches(b *testing.B) map[string]*Batch {
	b.Helper()
	rng := rand.New(rand.NewSource(23))
	a := redundantMatrix(rng, 500, 120, 0.5, 5)
	out := map[string]*Batch{}
	for _, v := range allVariants {
		out[v.String()] = CompressVariant(a, v)
	}
	return out
}

func BenchmarkSerialize(b *testing.B) {
	for name, batch := range benchVariantBatches(b) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(batch.Serialize())))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Rebuild the image each iteration, as spill ingest of a
				// freshly scaled/encoded batch would.
				batch.img = nil
				batch.Serialize()
			}
		})
	}
}

// BenchmarkDeserialize's imagenet row is the spilled read path's cost per
// visit on the benchmark's batch shape, 256 images cycling: unpack,
// validate and renumber D onto its live nodes. Measured on the 2-core
// 2.1 GHz Xeon (-cpu 1, five alternating runs): 31.5-44.9 us/op without
// the renumbering, 47.3-57.5 with it (11 → 12 allocs: the bitmap).
func BenchmarkDeserialize(b *testing.B) {
	imgs := [][]byte{}
	for _, batch := range benchBatches(b, "imagenet", 256) {
		imgs = append(imgs, batch.Serialize())
	}
	b.Run("imagenet", func(b *testing.B) {
		b.SetBytes(int64(len(imgs[0])))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Deserialize(imgs[i%len(imgs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for name, batch := range benchVariantBatches(b) {
		img := batch.Serialize()
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(img)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Deserialize(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
