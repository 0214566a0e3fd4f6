package ml

import (
	"fmt"
	"time"

	"toc/internal/data"
	"toc/internal/formats"
)

// BatchSource supplies compressed mini-batches to the MGD driver. The
// in-memory implementation below serves the fits-in-RAM regime; the
// spill-to-disk implementation lives in internal/storage.
type BatchSource interface {
	// NumBatches returns how many mini-batches one epoch visits.
	NumBatches() int
	// Batch returns mini-batch i and its labels; implementations may incur
	// IO (reading spilled batches back from disk).
	Batch(i int) (formats.CompressedMatrix, []float64)
}

// Releaser is the optional release hook of a BatchSource. Release(x)
// tells the source that the caller is done with x, a batch its Batch
// returned, and with everything built on it, so the source may reuse its
// memory. Each Batch call is matched by at most one Release, and the
// caller does not touch x after it. storage.Prefetcher implements the
// hook, recycling a spilled batch's memory into a later read; without
// it, batches are the collector's, as they always were.
//
// Every training loop looks the hook up once per run and calls it after
// Grad (or Predict) has returned for a batch — not when either panics,
// which leaves the batch to the collector.
type Releaser interface {
	Release(x formats.CompressedMatrix)
}

// MemorySource keeps every compressed mini-batch in memory.
type MemorySource struct {
	batches []formats.CompressedMatrix
	labels  [][]float64
}

// NewMemorySource slices the dataset into batchSize mini-batches and
// encodes each one with enc. The dataset should already be shuffled once
// (§2.1.3).
func NewMemorySource(d *data.Dataset, batchSize int, enc formats.Encoder) *MemorySource {
	src := &MemorySource{}
	n := d.NumBatches(batchSize)
	for i := 0; i < n; i++ {
		x, y := d.Batch(i, batchSize)
		src.batches = append(src.batches, enc(x))
		src.labels = append(src.labels, y)
	}
	return src
}

// NumBatches returns the number of mini-batches.
func (s *MemorySource) NumBatches() int { return len(s.batches) }

// Batch returns mini-batch i.
func (s *MemorySource) Batch(i int) (formats.CompressedMatrix, []float64) {
	return s.batches[i], s.labels[i]
}

// CompressedBytes totals the encoded size of all batches.
func (s *MemorySource) CompressedBytes() int {
	total := 0
	for _, b := range s.batches {
		total += b.CompressedSize()
	}
	return total
}

// TrainResult records the trajectory of one training run.
type TrainResult struct {
	// EpochLoss is the mean per-batch training loss of each epoch.
	EpochLoss []float64
	// EpochTime is the wall-clock duration of each epoch.
	EpochTime []time.Duration
	// Total is the end-to-end training time.
	Total time.Duration
}

// EpochCallback observes training after every epoch; elapsed is the
// cumulative wall-clock time since training started.
type EpochCallback func(epoch int, elapsed time.Duration, avgLoss float64)

// Train is the serial MGD driver: it runs the given number of epochs at
// the paper's fixed learning rate, visiting all mini-batches in order
// every epoch (the data was shuffled once upfront) and applying Equation
// 2 per batch. A step is Grad into the driver's one gradient buffer
// followed by ApplyGrad of it — the definition the engines share, so
// their identity tests compare against this trajectory. cb may be nil.
//
//toc:timing
func Train(m Model, src BatchSource, epochs int, lr float64, cb EpochCallback) *TrainResult {
	res := &TrainResult{}
	g := make([]float64, m.NumParams())
	rel, _ := src.(Releaser)
	start := time.Now()
	n := src.NumBatches()
	for e := 0; e < epochs; e++ {
		epochStart := time.Now()
		var loss float64
		for i := 0; i < n; i++ {
			x, y := src.Batch(i)
			loss += m.Grad(x, y, g)
			if rel != nil {
				rel.Release(x)
			}
			m.ApplyGrad(g, lr)
		}
		if n > 0 {
			loss /= float64(n)
		}
		res.EpochLoss = append(res.EpochLoss, loss)
		res.EpochTime = append(res.EpochTime, time.Since(epochStart))
		if cb != nil {
			cb(e, time.Since(start), loss)
		}
	}
	res.Total = time.Since(start)
	return res
}

// NewModel constructs a model by the paper's short name ("linreg", "lr",
// "svm", "nn") for a dims-wide input with the given class count. LR and
// SVM are one-vs-rest when classes > 2: one Linear with a column per
// class. The NN uses the paper's two hidden layers of 200 and 50 neurons
// scaled by hiddenScale (1.0 = paper size).
func NewModel(name string, dims, classes int, hiddenScale float64, seed int64) (Model, error) {
	switch name {
	case "linreg":
		return NewLinReg(dims), nil
	case "lr":
		return newLinear(logistic, dims, classes), nil
	case "svm":
		return newLinear(hinge, dims, classes), nil
	case "nn":
		h1 := int(200 * hiddenScale)
		h2 := int(50 * hiddenScale)
		if h1 < 2 {
			h1 = 2
		}
		if h2 < 2 {
			h2 = 2
		}
		return NewNN(dims, []int{h1, h2}, classes, seed), nil
	default:
		return nil, fmt.Errorf("ml: unknown model %q", name)
	}
}

// EvaluateError runs the model over a source and returns the error rate.
func EvaluateError(m Model, src BatchSource) float64 {
	var wrong, total int
	rel, _ := src.(Releaser)
	for i := 0; i < src.NumBatches(); i++ {
		x, y := src.Batch(i)
		pred := m.Predict(x)
		if rel != nil {
			rel.Release(x)
		}
		for k := range y {
			if pred[k] != y[k] {
				wrong++
			}
		}
		total += len(y)
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}
