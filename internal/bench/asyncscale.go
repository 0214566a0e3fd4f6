package bench

import (
	"fmt"
	"time"

	"toc/internal/data"
	"toc/internal/engine"
	"toc/internal/formats"
	"toc/internal/ml"
)

// Async bounded-staleness scaling — the scheduling counterpart of the
// spillscale and rightmul regimes. Batch costs are deterministically
// skewed (every slowEvery-th batch costs slowFactor× the unit), the
// regime where a synchronous merge barrier caps speedup: each group step
// waits for its slowest member, so the whole pool idles behind one cold
// batch. The sweep crosses the async engine's staleness bound with the
// worker count against the synchronous group-step engine at the same
// worker count. Staleness 0 is the serial chain (one gradient in flight —
// the floor), the barrier rows show what synchrony costs, and a staleness
// window ≥ the skew period lets workers flow around stragglers, so async
// beats the barrier as workers grow. stale_max never exceeds the bound:
// the loop's admission check is part of what this regime measures.

// scalingModel is the lr model the engine scaling regimes (this one and
// spillscale) train, seeded from the config.
func scalingModel(cfg Config, d *data.Dataset) (ml.GradModel, error) {
	m, err := ml.NewModel("lr", d.X.Cols(), d.Classes, 0.12, cfg.Seed+31)
	if err != nil {
		return nil, err
	}
	return m.(ml.GradModel), nil
}

func init() {
	register("asyncscale", "async bounded-staleness vs the synchronous barrier under skewed batch costs", runAsyncScale)
}

const (
	// asyncScaleUnit is the simulated cost of a fast batch.
	asyncScaleUnit = 1500 * time.Microsecond
	// asyncScaleSlowEvery marks every k-th batch as a straggler.
	asyncScaleSlowEvery = 8
	// asyncScaleSlowFactor is the straggler's cost multiple.
	asyncScaleSlowFactor = 8
)

// skewedSource adds the deterministic per-batch delay to a BatchSource on
// the consumer's goroutine, so a slow batch occupies whichever worker
// drew it — exactly how a spill miss or a cold decode behaves.
type skewedSource struct {
	ml.BatchSource
}

func (s *skewedSource) Batch(i int) (formats.CompressedMatrix, []float64) {
	x, y := s.BatchSource.Batch(i)
	delay := asyncScaleUnit
	if i%asyncScaleSlowEvery == 0 {
		delay *= asyncScaleSlowFactor
	}
	time.Sleep(delay)
	return x, y
}

func runAsyncScale(cfg Config) (*Table, error) {
	const batchSize, epochs, group = 100, 2, 8
	t := &Table{
		ID:    "asyncscale",
		Title: "async bounded-staleness vs sync group steps (skewed batch costs)",
		Columns: []string{"config", "staleness", "workers", "epoch_ms", "speedup_vs_sync",
			"updates", "rejected", "stale_max", "stale_mean", "final_loss"},
		Notes: []string{
			fmt.Sprintf("every %dth batch costs %dx the %v unit; the sync engine merges group=%d",
				asyncScaleSlowEvery, asyncScaleSlowFactor, asyncScaleUnit, group),
			"  gradients per update so each step waits for its slowest batch, while the",
			"  async engine applies per-batch updates whose snapshots may trail by at most",
			"  'staleness' updates (-1 = unbounded). speedup_vs_sync compares equal worker",
			"  counts. sync and async walk different update schedules, so final_loss",
			"  differs between configs (staleness 0 = the serial per-batch trajectory).",
		},
	}
	d, err := getDataset("census", cfg.rows(4000), cfg.Seed)
	if err != nil {
		return nil, err
	}
	src := &skewedSource{BatchSource: ml.NewMemorySource(d, batchSize, formats.MustGet("TOC"))}
	n := src.NumBatches()
	stalenessSweep := addCount([]int{0, group, 4 * group}, cfg.Staleness)
	if cfg.Staleness < 0 {
		stalenessSweep = append(stalenessSweep, engine.StalenessUnbounded)
	}
	for _, w := range addCount([]int{1, 4, 8}, cfg.Workers) {
		m, err := scalingModel(cfg, d)
		if err != nil {
			return nil, err
		}
		sync := engine.New(engine.Config{Workers: w, GroupSize: group, Seed: cfg.Seed})
		res := sync.Train(m, src, epochs, 0.2, nil)
		syncEpoch := res.Total.Seconds() / epochs
		t.Rows = append(t.Rows, []string{
			"sync", "-", fmt.Sprint(w),
			fmt.Sprintf("%.0f", syncEpoch*1e3), "1.00",
			fmt.Sprint(epochs * ((n + group - 1) / group)), "-", "-", "-",
			fmt.Sprintf("%.6f", res.EpochLoss[epochs-1]),
		})
		for _, s := range stalenessSweep {
			m, err := scalingModel(cfg, d)
			if err != nil {
				return nil, err
			}
			sm, ok := m.(ml.SnapshotModel)
			if !ok {
				return nil, fmt.Errorf("asyncscale: model %T does not implement SnapshotModel", m)
			}
			a := engine.NewAsync(engine.AsyncConfig{Workers: w, Staleness: s, Seed: cfg.Seed})
			res, err := a.Train(sm, src, epochs, 0.2, nil)
			if err != nil {
				return nil, err
			}
			st := a.Stats()
			asyncEpoch := res.Total.Seconds() / epochs
			label := fmt.Sprint(s)
			if s < 0 {
				label = "inf"
			}
			t.Rows = append(t.Rows, []string{
				"async", label, fmt.Sprint(w),
				fmt.Sprintf("%.0f", asyncEpoch*1e3),
				fmt.Sprintf("%.2f", syncEpoch/asyncEpoch),
				fmt.Sprint(st.Updates), fmt.Sprint(st.Rejected),
				fmt.Sprint(st.MaxStaleness), fmt.Sprintf("%.2f", st.MeanStaleness()),
				fmt.Sprintf("%.6f", res.EpochLoss[epochs-1]),
			})
		}
	}
	return t, nil
}
