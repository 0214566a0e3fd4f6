package toc

import "testing"

// Facade smoke test: the public API compresses, operates, serializes and
// trains end to end.
func TestFacadeEndToEnd(t *testing.T) {
	a := NewDenseFromRows([][]float64{
		{1.1, 2, 3, 1.4},
		{1.1, 2, 3, 0},
		{0, 1.1, 3, 1.4},
		{1.1, 2, 0, 0},
	})
	b := Compress(a)
	if b.CompressionRatio() <= 1 {
		t.Fatalf("ratio = %v", b.CompressionRatio())
	}
	if got := b.MulVec([]float64{1, 0, 0, 0}); got[0] != 1.1 {
		t.Fatalf("MulVec = %v", got)
	}
	back, err := Deserialize(b.Serialize())
	if err != nil || !back.Decode().Equal(a) {
		t.Fatalf("round trip: %v", err)
	}
	for _, m := range PaperMethods() {
		if !Encode(m, a).Decode().Equal(a) {
			t.Fatalf("%s not lossless", m)
		}
	}
	d, err := GenerateDataset("census", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(2)
	model, err := NewModel("lr", d.X.Cols(), d.Classes, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMemorySource(d, 50, "TOC")
	res := Train(model, src, 4, 0.5, nil)
	if res.EpochLoss[3] >= res.EpochLoss[0] {
		t.Fatalf("loss did not decrease: %v", res.EpochLoss)
	}
	store, err := NewStore(t.TempDir(), "TOC", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	x, y := d.Batch(0, 50)
	if err := store.Add(x, y); err != nil {
		t.Fatal(err)
	}
	c, _ := store.Batch(0)
	if !c.Decode().Equal(x) {
		t.Fatal("store round trip mismatch")
	}
	if len(DatasetNames()) != 6 || len(Methods()) < 8 {
		t.Fatal("registry incomplete")
	}
	if _, ok := GetCodec("TOC"); !ok {
		t.Fatal("TOC codec missing")
	}
	// The kernel-plan surface: a TOC batch plans its kernels, every model
	// takes a kernel-worker knob, and none of it changes any result.
	seq := b.VecMul([]float64{1, -2, 3, 0.5})
	plan := b.NewKernelPlan()
	planned := plan.VecMulInto(nil, []float64{1, -2, 3, 0.5}, 4)
	plan.Release()
	for i := range seq {
		if seq[i] != planned[i] {
			t.Fatalf("planned VecMulInto diverges at %d: %v vs %v", i, planned[i], seq[i])
		}
	}
	model.SetKernelWorkers(4)
	if e := EvaluateError(model, src); e < 0 || e > 1 {
		t.Fatalf("kernel-parallel evaluation error rate %v", e)
	}
	// The sharded-spill surface: store options and the byte-bounded
	// prefetch window, all via the facade.
	sharded, err := NewStore(t.TempDir(), "TOC", 1,
		WithShards(2), WithReadBandwidth(0), WithAccessLatency(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if sharded.Shards() != 2 {
		t.Fatalf("Shards() = %d", sharded.Shards())
	}
	for i := 0; i < 4; i++ {
		bx, by := d.Batch(i, 50)
		if err := sharded.Add(bx, by); err != nil {
			t.Fatal(err)
		}
	}
	pf := NewEngine(EngineConfig{Workers: 2}).NewPrefetcher(sharded, 3, 1<<20)
	defer pf.Close()
	for i := 0; i < 4; i++ {
		bx, _ := d.Batch(i, 50)
		c, _ := pf.Batch(i)
		if !c.Decode().Equal(bx) {
			t.Fatalf("sharded store batch %d round trip mismatch", i)
		}
	}
	// Bounded staleness: the engine trains at steps of one under bound 2,
	// and the bound holds.
	aeng := NewEngine(EngineConfig{Workers: 4, GroupSize: 1, Staleness: 2})
	am, err := NewModel("lr", d.X.Cols(), d.Classes, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := aeng.Train(am, src, 2, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ares.EpochLoss) != 2 {
		t.Fatalf("bounded-staleness epochs = %d", len(ares.EpochLoss))
	}
	if st := aeng.Stats(); st.MaxStaleness > 2 || st.Updates != int64(2*src.NumBatches()) {
		t.Fatalf("bounded-staleness stats out of contract: %+v", st)
	}
}
