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
// add, 256 batches cycling: the image written section by section from
// the resident form. Measured on the 2-core Xeon (-cpu 1, eight
// alternating runs, medians and quartiles): writing D back in the
// paper's numbering through the inverse map took 37.4 (25.6-45.4) us/op;
// writing D′ and the creation bitmap as they are takes 18.2 (15.6-25.4).
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
// cycling: read the sections, decode I, unpack D′ and the creation
// bitmap, and check and mark D′ in one pass. The mnist row has 1-byte
// dictionary indexes into a 256-value dictionary; imagenet's values are
// all distinct. Measured on the 2-core Xeon (-cpu 1, eight alternating
// runs, medians and quartiles, us/op), against images that held D in
// the paper's numbering, which every read renumbered onto its live
// nodes:
//
//	imagenet           58.6 (43.6-63.8)   → 22.2 (21.1-34.0)
//	imagenet/recycled  34.1 (31.8-54.0)   → 18.0 (16.1-21.6)
//	mnist              122 (83.6-137)     → 63.7 (51.7-74.4)
//	mnist/recycled     90.0 (68.4-107)    → 42.5 (34.9-50.2)
//
// Both reads make 5 allocations, 40/125 KB, or none into recycled
// memory.
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
