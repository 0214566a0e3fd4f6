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

// BenchmarkSerialize's generator rows are what spilling one freshly
// compressed batch of the benchmark's shape costs FillStore's in-order
// add, 256 batches cycling: the image written section by section from
// the resident form. Measured on the 2-core Xeon (-cpu 1, eight
// alternating runs, medians and quartiles): writing D back in the
// paper's numbering through the inverse map took 37.4 (25.6-45.4) us/op
// on imagenet; writing D′ and the creation bitmap as they are took 18.2
// (15.6-25.4). With the value dictionary resident the writer no longer
// value-indexes I (it interned I's values unless all were distinct); 10
// alternating pairs, medians, us/op:
//
//	imagenet   16.1 → 13.1
//	mnist      82.8 → 28.4
//	deep1b      227 → 164
//
// A dictionary with an entry a pair is then written as the values in
// pair order and no index section (imagenet's and most of deep1b's
// batches): 40 alternating pairs (cmd/benchdiff, -cpu 1), median
// per-pair ratio 0.897 on imagenet (27 of 40 faster) and 0.839 on
// deep1b (26 of 40); mnist, whose values repeat, 0.989 (23 of 40).
func BenchmarkSerialize(b *testing.B) {
	for _, name := range []string{"imagenet", "mnist", "deep1b"} {
		batches := benchBatches(b, name, 256)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(batches[0].CompressedSize()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batches[i%len(batches)].Serialize()
			}
		})
	}
	for name, batch := range benchVariantBatches(b) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(batch.CompressedSize()))
			for i := 0; i < b.N; i++ {
				batch.Serialize()
			}
		})
	}
}

// BenchmarkDeserialize's generator rows are the spilled read path's
// cost per visit on the benchmark's batch shape, 256 images cycling:
// read the sections, unpack I's words and copy its dictionary, unpack D′
// and the creation bitmap, and check and mark D′ in one pass. The mnist
// row has 1-byte dictionary indexes into a 256-value dictionary;
// imagenet's and deep1b's values are all distinct. Measured on the
// 2-core Xeon (-cpu 1, eight alternating runs, medians and quartiles,
// us/op), against images that held D in the paper's numbering, which
// every read renumbered onto its live nodes:
//
//	imagenet           58.6 (43.6-63.8)   → 22.2 (21.1-34.0)
//	imagenet/recycled  34.1 (31.8-54.0)   → 18.0 (16.1-21.6)
//	mnist              122 (83.6-137)     → 63.7 (51.7-74.4)
//	mnist/recycled     90.0 (68.4-107)    → 42.5 (34.9-50.2)
//
// Then against a read that gathered one value a pair into the batch
// (medians, 16 alternating pairs for imagenet and deep1b, 10 for
// mnist): mnist 52.4 → 44.8 and 34.7 → 30.0 recycled; imagenet 20.2 →
// 21.8 and 14.5 → 15.7; deep1b 154 → 166 and 104 → 120. All-distinct
// values pay a dictionary copy beside the words, where the gather wrote
// each value once. Then against images of all-distinct values that
// stored the identity index section this read no longer unpacks or
// checks (two sessions of 40 alternating pairs, cmd/benchdiff, -cpu 1,
// median per-pair ratio, pairs faster): imagenet 0.949 (24) and 0.897
// (31), recycled 0.943 (24) and 0.915 (26); deep1b 0.921 (27) and 0.906
// (30), recycled 0.956 (24) and 0.869 (31). mnist's images keep their
// index section and read 0.997 (20) and 1.052 (16), recycled 0.963 (21)
// and 1.015 (19), none with p < 0.13. The reads make 5 allocations, 40 KB on imagenet and 61 KB on
// mnist (125 KB with a value a pair), or none into recycled memory.
func BenchmarkDeserialize(b *testing.B) {
	for _, name := range []string{"imagenet", "mnist", "deep1b"} {
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
