package toc_test

// Testable godoc examples for the facade's three entry points — the TOC
// pipeline (Compress), the MGD driver (Train) and the out-of-core store
// (NewStore) — plus the concurrent engine. `go test` executes them, so
// every Output block is a checked claim.

import (
	"fmt"

	"toc"
)

// ExampleCompress encodes a mini-batch with the full TOC pipeline and runs
// a matrix operation directly on the compressed form.
func ExampleCompress() {
	m := toc.NewDenseFromRows([][]float64{
		{1.5, 2, 0, 3},
		{1.5, 2, 0, 0},
		{0, 2, 0, 3},
	})
	batch := toc.Compress(m)
	fmt.Println(batch.Rows(), "x", batch.Cols())
	fmt.Println("A.v =", batch.MulVec([]float64{1, 1, 1, 1})) // no decompression
	fmt.Println("lossless:", batch.Decode().Equal(m))
	// Output:
	// 3 x 4
	// A.v = [6.5 3.5 5]
	// lossless: true
}

// ExampleTrain runs mini-batch gradient descent over TOC-compressed
// batches; every gradient executes on the compressed form.
func ExampleTrain() {
	d, err := toc.GenerateDataset("census", 400, 1)
	if err != nil {
		panic(err)
	}
	d.ShuffleOnce(2)
	src := toc.NewMemorySource(d, 50, "TOC")
	model, err := toc.NewModel("lr", d.X.Cols(), d.Classes, 1, 3)
	if err != nil {
		panic(err)
	}
	res := toc.Train(model, src, 4, 0.5, nil)
	fmt.Println("epochs trained:", len(res.EpochLoss))
	fmt.Println("loss decreased:", res.EpochLoss[3] < res.EpochLoss[0])
	// Output:
	// epochs trained: 4
	// loss decreased: true
}

// ExampleNewStore builds a memory-budgeted batch store: batches beyond
// the budget spill to disk and are re-read (real IO plus wire decoding)
// every epoch — the paper's out-of-core regime.
func ExampleNewStore() {
	store, err := toc.NewStore("", "TOC", 1) // 1-byte budget: everything spills
	if err != nil {
		panic(err)
	}
	defer store.Close()
	x := toc.NewDenseFromRows([][]float64{{1, 2, 0}, {1, 0, 3}})
	if err := store.Add(x, []float64{0, 1}); err != nil {
		panic(err)
	}
	st := store.Stats()
	fmt.Println("batches:", store.NumBatches())
	fmt.Println("resident:", st.ResidentBatches, "spilled:", st.SpilledBatches)
	y, labels := store.Batch(0) // read back from the spill file
	fmt.Println("round trip:", y.Decode().Equal(x), labels)
	// Output:
	// batches: 1
	// resident: 0 spilled: 1
	// round trip: true [0 1]
}

// ExampleBatch_NewKernelPlan builds a batch's decode tree once and runs
// the left-multiplication kernel v·A on it. The plan's v·A equals VecMul
// bit for bit; the vector kernels ignore the workers argument (only the
// matrix kernels A·M and M·A split across goroutines), so a planned
// training step walks exactly the sequential trajectory.
func ExampleBatch_NewKernelPlan() {
	m := toc.NewDenseFromRows([][]float64{
		{1.5, 2, 0, 3},
		{1.5, 2, 0, 0},
		{0, 2, 0, 3},
		{1.5, 0, 0, 3},
	})
	batch := toc.Compress(m)
	v := []float64{0.5, -1, 2, 0.25}
	seq := batch.VecMul(v) // v·A
	plan := batch.NewKernelPlan()
	planned := plan.VecMulInto(nil, v, 8) // v·A on the plan; workers is ignored
	plan.Release()
	identical := true
	for i := range seq {
		identical = identical && seq[i] == planned[i]
	}
	fmt.Println("v.A =", seq)
	fmt.Println("bitwise identical:", identical)
	// Output:
	// v.A = [-0.375 3 0 8.25]
	// bitwise identical: true
}

// ExampleNewEngine trains data-parallel across a worker pool. The engine
// merges each step's shard gradients in batch order, so the resulting
// weights are identical for any worker count.
func ExampleNewEngine() {
	d, err := toc.GenerateDataset("census", 400, 1)
	if err != nil {
		panic(err)
	}
	d.ShuffleOnce(2)
	src := toc.NewMemorySource(d, 50, "TOC")

	train := func(workers int) float64 {
		model, err := toc.NewModel("lr", d.X.Cols(), d.Classes, 1, 3)
		if err != nil {
			panic(err)
		}
		eng := toc.NewEngine(toc.EngineConfig{Workers: workers, GroupSize: 4})
		res := eng.Train(model, src, 4, 0.5, nil)
		return res.EpochLoss[3]
	}
	fmt.Println("workers=1 == workers=8:", train(1) == train(8))
	// Output:
	// workers=1 == workers=8: true
}

// ExampleNewAsyncEngine is the `toctrain -async` path as library code:
// asynchronous bounded-staleness training, where workers pull batch
// positions from the training loop, which applies each gradient only if
// its parameter snapshot missed at most Staleness updates. There is no
// merge barrier, so a slow batch never idles the other workers — and at
// Staleness 0 every gradient is computed at exactly the version it is
// applied to, reproducing the serial trajectory bitwise for any worker
// count.
func ExampleNewAsyncEngine() {
	d, err := toc.GenerateDataset("census", 400, 1)
	if err != nil {
		panic(err)
	}
	d.ShuffleOnce(2)
	src := toc.NewMemorySource(d, 50, "TOC")

	model, err := toc.NewModel("lr", d.X.Cols(), d.Classes, 1, 3)
	if err != nil {
		panic(err)
	}
	serial := toc.Train(model, src, 3, 0.5, nil) // the reference trajectory

	async, err := toc.NewModel("lr", d.X.Cols(), d.Classes, 1, 3)
	if err != nil {
		panic(err)
	}
	eng := toc.NewAsyncEngine(toc.AsyncConfig{Workers: 8, Staleness: 0})
	res, err := eng.Train(async, src, 3, 0.5, nil)
	if err != nil {
		panic(err)
	}
	stats := eng.Stats()
	fmt.Println("loss sequence identical:",
		serial.EpochLoss[0] == res.EpochLoss[0] &&
			serial.EpochLoss[1] == res.EpochLoss[1] &&
			serial.EpochLoss[2] == res.EpochLoss[2])
	fmt.Println("updates:", stats.Updates, "max staleness:", stats.MaxStaleness)
	// Output:
	// loss sequence identical: true
	// updates: 24 max staleness: 0
}
