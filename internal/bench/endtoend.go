package bench

import (
	"fmt"
	"time"

	"toc/internal/data"
	"toc/internal/ml"
	"toc/internal/storage"
)

// End-to-end MGD runtime experiments: Figure 9 (runtime vs dataset size),
// Figure 10 (TOC-layer ablation on runtimes), Table 6 (imagenet/mnist) and
// Table 7 (census/kdd99).
//
// The memory-budget regimes mirror the paper: the "1m" datasets fit in
// RAM for every encoding; the "25m" datasets fit only for the formats with
// the best ratios (TOC, Gzip, Snappy) — everything else spills to disk and
// pays IO every epoch. storage.Store simulates the paper's ~150 MB/s cloud
// disk so the page cache does not hide the cost at laptop scale.

func init() {
	register("fig9", "end-to-end MGD runtime vs dataset size (imagenet-like)", runFig9)
	register("fig10", "TOC ablation on end-to-end MGD runtimes", runFig10)
	register("table6", "end-to-end MGD runtimes on imagenet/mnist (in-RAM and spill)", runTable6)
	register("table7", "end-to-end MGD runtimes on census/kdd99 (in-RAM and spill)", runTable7)
}

// simulatedDiskBandwidth models the paper's out-of-core regime. The
// paper's machines read spilled data through a thrashing OS page cache
// (24 GB working set on 15 GB RAM), whose effective throughput is far
// below the disk's nominal 150-200 MB/s; 25 MB/s keeps our IO:compute
// ratio aligned with the paper's (their C++ kernels are also several
// times faster than these Go kernels).
const simulatedDiskBandwidth = 25 << 20 // bytes/s

// storeSource wraps a storage.Store for training plus cleanup.
type storeSource struct {
	*storage.Store
}

func (s storeSource) close() { _ = s.Close() }

// newStoreSource loads a dataset into a budgeted store on the simulated
// disk, honoring the Config's spill knobs (shard count and directories).
func newStoreSource(cfg Config, d *data.Dataset, batchSize int, method string, budget int64) (storeSource, error) {
	opts := []storage.Option{storage.WithShards(cfg.SpillShards), storage.WithReadBandwidth(simulatedDiskBandwidth)}
	if len(cfg.SpillDirs) > 0 {
		opts = append(opts, storage.WithShardDirs(cfg.SpillDirs...))
	}
	st, err := storage.NewStore(cfg.Dir, method, budget, opts...)
	if err != nil {
		return storeSource{}, err
	}
	for i := 0; i < d.NumBatches(batchSize); i++ {
		x, y := d.Batch(i, batchSize)
		if err := st.Add(x, y); err != nil {
			st.Close()
			return storeSource{}, err
		}
	}
	return storeSource{st}, nil
}

// trainOnce measures the wall-clock training time of a model over a store.
func trainOnce(cfg Config, d *data.Dataset, method, modelName string, budget int64, epochs int) (time.Duration, error) {
	src, err := newStoreSource(cfg, d, 250, method, budget)
	if err != nil {
		return 0, err
	}
	defer src.close()
	m, err := ml.NewModel(modelName, d.X.Cols(), d.Classes, 0.12, cfg.Seed+31)
	if err != nil {
		return 0, err
	}
	res := ml.Train(m, src, epochs, 0.2, nil)
	return res.Total, nil
}

var e2eMethods = []string{"TOC", "DEN", "CSR", "CVI", "DVI", "Snappy", "Gzip"}

func runFig9(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "end-to-end MGD runtime (ms) vs dataset rows, imagenet-like",
		Columns: append([]string{"model", "rows"}, e2eMethods...),
		Notes: []string{
			"fixed memory budget; simulated 25 MB/s effective spill bandwidth",
			"paper shape: runtime jumps once an encoding spills; TOC spills last",
			"  and stays fastest; the gap is larger for LR than NN (NN is compute-heavy)",
		},
	}
	sizes := []int{500, 1000, 2000, 4000}
	// Budget: comfortably holds TOC at the largest size; DEN spills early.
	base, err := getDataset("imagenet", cfg.rows(sizes[len(sizes)-1]), cfg.Seed)
	if err != nil {
		return nil, err
	}
	budget := int64(float64(totalCompressed(base, 250, "TOC")) * 1.3)
	for _, modelName := range []string{"nn", "lr"} {
		epochs := 2
		if modelName == "nn" {
			epochs = 1
		}
		for _, n := range sizes {
			d, err := getDataset("imagenet", cfg.rows(n), cfg.Seed)
			if err != nil {
				return nil, err
			}
			row := []string{modelName, fmt.Sprint(d.X.Rows())}
			for _, method := range e2eMethods {
				dur, err := trainOnce(cfg, d, method, modelName, budget, epochs)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.0f", dur.Seconds()*1e3))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

func runFig10(cfg Config) (*Table, error) {
	variants := []string{"DEN", "TOC_SPARSE", "TOC_SPARSE_AND_LOGICAL", "TOC_FULL"}
	t := &Table{
		ID:      "fig10",
		Title:   "end-to-end MGD runtime (ms) ablation of TOC encoding layers",
		Columns: append([]string{"model", "rows"}, variants...),
		Notes: []string{
			"paper shape: each added encoding layer reduces runtime (smaller",
			"  footprint spills later and reads less)",
		},
	}
	sizes := []int{1000, 2000, 4000}
	base, err := getDataset("imagenet", cfg.rows(sizes[len(sizes)-1]), cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Budget between TOC_FULL and TOC_SPARSE footprints so the ablation
	// layers change the spill point.
	budget := int64(float64(totalCompressed(base, 250, "TOC_SPARSE_AND_LOGICAL")) * 1.1)
	for _, modelName := range []string{"nn", "lr"} {
		epochs := 2
		if modelName == "nn" {
			epochs = 1
		}
		for _, n := range sizes {
			d, err := getDataset("imagenet", cfg.rows(n), cfg.Seed)
			if err != nil {
				return nil, err
			}
			row := []string{modelName, fmt.Sprint(d.X.Rows())}
			for _, v := range variants {
				dur, err := trainOnce(cfg, d, v, modelName, budget, epochs)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.0f", dur.Seconds()*1e3))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// runEndToEndTable builds a Table 6/7-style table for two datasets.
func runEndToEndTable(cfg Config, id, title string, datasets []string) (*Table, error) {
	models := []string{"nn", "lr", "svm"}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"method", "regime", "dataset", "nn_ms", "lr_ms", "svm_ms"},
		Notes: []string{
			"regime small = fits in RAM for all encodings (the paper's *1m);",
			"regime large = only TOC/Gzip/Snappy resident (the paper's *25m, 15GB RAM)",
			"every row is one of this repo's encodings under the one Go training loop;",
			"  the paper's Bismarck/ScikitLearn/TensorFlow rows are not reproduced",
			"paper shape: small regime TOC ~ CVI best; large regime TOC wins by",
			"  multiples on LR/SVM and clearly on NN",
		},
	}
	type regime struct {
		name   string
		rows   int
		budget func(d *data.Dataset) int64
	}
	regimes := []regime{
		{"small", 1200, func(*data.Dataset) int64 { return 1 << 40 }},
		{"large", 4000, func(d *data.Dataset) int64 {
			return int64(float64(totalCompressed(d, 250, "TOC")) * 1.1)
		}},
	}
	for _, ds := range datasets {
		for _, reg := range regimes {
			d, err := getDataset(ds, cfg.rows(reg.rows), cfg.Seed)
			if err != nil {
				return nil, err
			}
			budget := reg.budget(d)
			for _, method := range e2eMethods {
				row := []string{method, reg.name, ds}
				for _, modelName := range models {
					epochs := 2
					if modelName == "nn" {
						epochs = 1
					}
					dur, err := trainOnce(cfg, d, method, modelName, budget, epochs)
					if err != nil {
						return nil, err
					}
					row = append(row, fmt.Sprintf("%.0f", dur.Seconds()*1e3))
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return t, nil
}

func runTable6(cfg Config) (*Table, error) {
	return runEndToEndTable(cfg, "table6",
		"end-to-end MGD runtimes (ms): imagenet-like and mnist-like",
		[]string{"imagenet", "mnist"})
}

func runTable7(cfg Config) (*Table, error) {
	return runEndToEndTable(cfg, "table7",
		"end-to-end MGD runtimes (ms): census-like and kdd99-like",
		[]string{"census", "kdd99"})
}
