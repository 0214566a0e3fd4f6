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
// compressed batch of the benchmark's shape costs FillStore's in-order
// add, 256 batches cycling: D back to the paper's numbering, then the image
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

// BenchmarkDeserialize's imagenet and mnist rows are the spilled read
// path's cost per visit on the benchmark's batch shape, 256 images
// cycling: read the sections, decode I, check and mark D and renumber it
// onto its live nodes. The mnist row has 1-byte dictionary indexes into
// a 256-value dictionary; imagenet's values are all distinct. Measured
// on the 2-core Xeon (-cpu 1, eight alternating runs of four, medians
// and quartiles): reading each section into a heap object and the value
// dictionary into slices of its own took 88.7 (84.7-92.7) us/op on
// imagenet and 188 (178-194) on mnist, 12 allocs and 70/188 KB; the
// one-pass read takes 74.8 (70.8-77.9) and 160 (116-170), 5 allocs and
// 47/153 KB.
func BenchmarkDeserialize(b *testing.B) {
	for _, name := range []string{"imagenet", "mnist"} {
		imgs := [][]byte{}
		for _, batch := range benchBatches(b, name, 256) {
			imgs = append(imgs, batch.Serialize())
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(imgs[0])))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Deserialize(imgs[i%len(imgs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		// A spilled visit's read: into the memory of the batch the
		// previous visit recycled.
		b.Run(name+"/recycled", func(b *testing.B) {
			b.SetBytes(int64(len(imgs[0])))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				back, err := Deserialize(imgs[i%len(imgs)])
				if err != nil {
					b.Fatal(err)
				}
				back.Recycle()
			}
		})
	}
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
