// Command tocgen generates the synthetic evaluation datasets to disk in
// the DEN binary format (plus a labels file of float64 class ids), for
// use with toccompress. toctrain generates its datasets in memory and
// reads no dataset file.
//
// Usage:
//
//	tocgen -dataset kdd99 -rows 10000 -out kdd99.den
//	tocgen -list
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"toc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tocgen: ")
	var (
		dataset = flag.String("dataset", "census", "dataset name")
		rows    = flag.Int("rows", 10000, "number of rows")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "output file (default <dataset>.den)")
		list    = flag.Bool("list", false, "list dataset names and exit")
	)
	flag.Parse()
	if *list {
		for _, n := range toc.DatasetNames() {
			fmt.Println(n)
		}
		return
	}
	if *out == "" {
		*out = *dataset + ".den"
	}
	d, err := toc.GenerateDataset(*dataset, *rows, *seed)
	if err != nil {
		log.Fatal(err)
	}
	d.ShuffleOnce(*seed + 1)
	if err := os.WriteFile(*out, d.X.Serialize(), 0o644); err != nil {
		log.Fatal(err)
	}
	labels := make([]byte, 8*len(d.Y))
	for i, y := range d.Y {
		binary.LittleEndian.PutUint64(labels[8*i:], math.Float64bits(y))
	}
	labelPath := *out + ".labels"
	if err := os.WriteFile(labelPath, labels, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %dx%d, sparsity %.3f, %d classes -> %s (+%s)\n",
		*dataset, d.X.Rows(), d.X.Cols(), d.Sparsity(), d.Classes, *out, labelPath)
}
