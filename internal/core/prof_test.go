package core

import (
	"math/rand"
	"testing"
)

func BenchmarkMulVecProf(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := redundantMatrix(rng, 250, 68, 0.43, 5)
	batch := Compress(a)
	v := make([]float64, 68)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.MulVec(v)
	}
}

func BenchmarkBuildTreeProf(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := redundantMatrix(rng, 250, 68, 0.43, 5)
	batch := Compress(a)
	var arena treeArena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.build(batch.i, batch.d)
	}
}
