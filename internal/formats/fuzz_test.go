package formats

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// A header that claims more than its bytes hold is refused before
// anything is sized by the claim. The DEN images used to be accepted: the
// first because 8·rows·cols wraps to 0, the second, bounded by nothing,
// asking 6.4 GB of its first MulVec. The CLA images used to allocate
// 4 GiB of runs for one 49-byte RLE list, and 128 MiB of column flags for
// a 16-byte header naming no group.
func TestDecodersRefuseForgedCounts(t *testing.T) {
	den := func(rows, cols uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, rows), cols)
	}
	cla := func(rows, cols, groups uint32) []byte {
		img := []byte{0x16, 0, 0, 0}
		for _, v := range []uint32{rows, cols, groups} {
			img = binary.LittleEndian.AppendUint32(img, v)
		}
		return img
	}
	rle := append(cla(1, 1, 1), 2, 1, 0, 0, 1, 0, 0, 0)                            // RLE, width 1, one list
	rle = append(rle, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f)                    // column 0, dict {1.0}
	rle = append(binary.LittleEndian.AppendUint32(rle, 1<<29), make([]byte, 9)...) // 2^29 runs
	for _, f := range []struct {
		name, scheme string
		img          []byte
	}{
		{"2^33×2^31", "DEN", den(1<<33, 1<<31)},
		{"805306385×0", "DEN", den(805306385, 0)},
		{"2^29 runs", "CLA", rle},
		{"2^27 columns", "CLA", cla(1, 1<<27, 0)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := MustGetCodec(f.scheme).Decode(f.img)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s %s: accepted", f.scheme, f.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s %s: allocated %d bytes before refusing it: %v", f.scheme, f.name, got, err)
		}
	}
}

// FuzzFormatsDecode drives every registered scheme's wire decoder with
// arbitrary bytes; scheme picks the decoder by its index in Names(). An
// image is refused with an error, or it decodes to a matrix of bounded
// dimensions whose size is its own image's length, and one of at most
// 4096×4096 also decodes and runs A·v and v·A without a panic. The
// committed corpus holds the 805306385×0 DEN and the 2^29-run CLA
// forgeries of TestDecodersRefuseForgedCounts.
//
// An accepted image need not re-serialize to itself: DVI and CLA accept
// nonzero reserved header bytes, which is non-canonical but safe.
func FuzzFormatsDecode(f *testing.F) {
	names := Names()
	a := redundantMatrix(rand.New(rand.NewSource(34)), 12, 6, 0.5, 3)
	for i, name := range names {
		f.Add(uint8(i), MustGetCodec(name).Encode(a).Serialize())
	}
	f.Fuzz(func(t *testing.T, scheme uint8, img []byte) {
		name := names[int(scheme)%len(names)]
		c, err := MustGetCodec(name).Decode(img)
		if err != nil {
			return
		}
		rows, cols := c.Rows(), c.Cols()
		if rows > maxWireDim || cols > maxWireDim {
			t.Fatalf("%s: accepted a %d×%d image", name, rows, cols)
		}
		if size, n := c.CompressedSize(), len(c.Serialize()); size != n {
			t.Fatalf("%s: CompressedSize %d for a %d-byte image", name, size, n)
		}
		if rows <= 4096 && cols <= 4096 {
			c.Decode()
			c.MulVec(make([]float64, cols))
			c.VecMul(make([]float64, rows))
		}
	})
}
