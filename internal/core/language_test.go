package core

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"

	"toc/internal/data"
)

// languageGolden pins which images Deserialize accepts. For a 12-row
// batch (seed 1) of every generator and variant, every byte of the image
// is XORed, one at a time, with 0x01 and, separately, with 0xff; bit
// 2·offset of a bitmap records whether the 0x01 image was accepted and
// bit 2·offset+1 the 0xff one. The golden is the bitmap's CRC-32 (IEEE)
// and its number of set bits. A decoder that drops a check, or adds one,
// moves the bitmap wherever a one-byte flip reaches that check.
var languageGolden = map[string]languageSum{
	"census/TOC_FULL":                 {0xa422a5fb, 1298},
	"census/TOC_SPARSE_AND_LOGICAL":   {0x1e489a92, 1897},
	"imagenet/TOC_FULL":               {0xc1b8f156, 8687},
	"imagenet/TOC_SPARSE_AND_LOGICAL": {0x5c0ae10d, 8687},
	"mnist/TOC_FULL":                  {0x3642f4ef, 5460},
	"mnist/TOC_SPARSE_AND_LOGICAL":    {0xc936c313, 9762},
	"kdd99/TOC_FULL":                  {0x1a882f53, 371},
	"kdd99/TOC_SPARSE_AND_LOGICAL":    {0x047da2bd, 611},
	"rcv1/TOC_FULL":                   {0x0f664101, 963},
	"rcv1/TOC_SPARSE_AND_LOGICAL":     {0x9207c4ed, 963},
	"deep1b/TOC_FULL":                 {0xcc50cab5, 19607},
	"deep1b/TOC_SPARSE_AND_LOGICAL":   {0x0d60aeeb, 19607},
}

type languageSum struct {
	crc     uint32
	accepts int
}

func TestDeserializeAcceptsSameLanguage(t *testing.T) {
	got := map[string]languageSum{}
	var tags []string
	for _, name := range data.Names() {
		ds, err := data.Generate(name, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range allVariants {
			tag := fmt.Sprintf("%s/%v", name, v)
			img := CompressVariant(ds.X, v).Serialize()
			if _, err := Deserialize(img); err != nil {
				t.Fatalf("%s: own image rejected: %v", tag, err)
			}
			accepted := mutationsAccepted(img)
			bitmap := make([]byte, (len(accepted)+7)/8)
			accepts := 0
			for bit, ok := range accepted {
				if ok {
					bitmap[bit/8] |= 1 << (bit % 8)
					accepts++
				}
			}
			r := languageSum{crc32.ChecksumIEEE(bitmap), accepts}
			got[tag], tags = r, append(tags, tag)
			if want, ok := languageGolden[tag]; !ok || r != want {
				t.Errorf("%s: accepted-language bitmap crc %08x with %d accepts, want %08x with %d",
					tag, r.crc, r.accepts, want.crc, want.accepts)
			}
		}
	}
	if t.Failed() {
		for _, tag := range tags {
			fmt.Printf("\t%q: {%#08x, %d},\n", tag, got[tag].crc, got[tag].accepts)
		}
	}
}

// mutationsAccepted reports, at index 2·offset+k, whether Deserialize
// accepts img with the byte at offset XORed with 0x01 (k = 0) or 0xff
// (k = 1). The offsets are split across GOMAXPROCS goroutines, each
// mutating its own copy.
func mutationsAccepted(img []byte) []bool {
	accepted := make([]bool, 2*len(img))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mut := append([]byte(nil), img...)
			for off := w; off < len(img); off += workers {
				for k, mask := range [2]byte{0x01, 0xff} {
					mut[off] = img[off] ^ mask
					_, err := Deserialize(mut)
					accepted[2*off+k] = err == nil
				}
				mut[off] = img[off]
			}
		}(w)
	}
	wg.Wait()
	return accepted
}
