// Out-of-core training: the Figure 1D story. A fixed memory budget holds
// all of the TOC-encoded dataset but only part of the DEN/CSR encodings;
// spilled batches are re-read from disk every epoch, so the encodings
// that do not fit pay IO on every pass. TOC trains fastest because its
// data alone stays resident AND its kernels need no decompression.
package main

import (
	"fmt"
	"log"

	"toc"
)

func main() {
	d, err := toc.GenerateDataset("imagenet", 3000, 11)
	if err != nil {
		log.Fatal(err)
	}
	d.ShuffleOnce(12)
	const batchSize = 250

	// Budget: 1.3x the TOC footprint — the "15 GB RAM vs 170 GB dataset"
	// regime of the paper's Table 6, scaled to laptop size.
	tocBytes := 0
	for i := 0; i < d.NumBatches(batchSize); i++ {
		x, _ := d.Batch(i, batchSize)
		tocBytes += toc.Encode("TOC", x).CompressedSize()
	}
	budget := int64(float64(tocBytes) * 1.3)
	fmt.Printf("imagenet-like: %d rows, memory budget %d KB (1.3x TOC footprint)\n\n",
		d.X.Rows(), budget/1024)

	fmt.Println("method  resident  spilled  spill_KB   epoch_ms  io_ms")
	for _, method := range []string{"TOC", "CSR", "DEN", "Gzip"} {
		// The paper's ~150 MB/s cloud disk.
		store, err := toc.NewStore("", method, budget, toc.WithReadBandwidth(150<<20))
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < d.NumBatches(batchSize); i++ {
			x, y := d.Batch(i, batchSize)
			if err := store.Add(x, y); err != nil {
				log.Fatal(err)
			}
		}
		model, err := toc.NewModel("lr", d.X.Cols(), d.Classes, 1, 7)
		if err != nil {
			log.Fatal(err)
		}
		res := toc.Train(model, store, 2, 0.3, nil)
		st := store.Stats()
		fmt.Printf("%-6s  %8d  %7d  %8d  %9.1f  %5.1f\n",
			method, st.ResidentBatches, st.SpilledBatches, st.SpilledBytes/1024,
			res.Total.Seconds()*1e3/2, st.ReadTime.Seconds()*1e3/2)
		if err := store.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nspilled encodings pay disk IO every epoch; TOC stays resident.")
}
