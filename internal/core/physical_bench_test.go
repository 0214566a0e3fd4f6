package core

import (
	"math/rand"
	"testing"
)

// Before/after benchmarks for the physical codec hot paths: Serialize (a
// resident batch writes its image on every call — the spill-ingest and
// manifest-backup cost) and Deserialize (the spill-read decode cost).

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

// BenchmarkSerialize's imagenet row is what spilling one freshly
// compressed batch of the benchmark's shape costs a FillStore worker,
// 256 batches cycling: D back to the paper's numbering, then the image
// written section by section.
func BenchmarkSerialize(b *testing.B) {
	batches := benchBatches(b, "imagenet", 256)
	b.Run("imagenet", func(b *testing.B) {
		b.SetBytes(int64(batches[0].CompressedSize()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batches[i%len(batches)].Serialize()
		}
	})
	for name, batch := range benchVariantBatches(b) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(batch.CompressedSize()))
			for i := 0; i < b.N; i++ {
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
