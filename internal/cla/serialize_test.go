package cla

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"toc/internal/matrix"
)

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, shape := range [][2]int{{1, 1}, {20, 5}, {120, 17}, {250, 8}} {
		a := redundantMatrix(rng, shape[0], shape[1], 0.4, 4)
		m := Compress(a)
		img := m.Serialize()
		if len(img) != m.CompressedSize() {
			t.Fatalf("shape %v: image %d bytes != CompressedSize %d (kinds %v)",
				shape, len(img), m.CompressedSize(), m.GroupKinds())
		}
		got, err := Deserialize(img)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if !got.Decode().Equal(a) {
			t.Fatalf("shape %v: round trip decode mismatch", shape)
		}
	}
}

func TestSerializeRoundTripAllKinds(t *testing.T) {
	// Force each layout to appear at least once across these inputs.
	rng := rand.New(rand.NewSource(22))
	inputs := []*matrix.Dense{}
	// RLE-friendly: long runs.
	runM := matrix.NewDense(200, 1)
	for i := 0; i < 120; i++ {
		runM.Set(i, 0, 3)
	}
	inputs = append(inputs, runM)
	// UC-friendly: all distinct.
	ucM := matrix.NewDense(64, 1)
	for i := 0; i < 64; i++ {
		ucM.Set(i, 0, rng.NormFloat64())
	}
	inputs = append(inputs, ucM)
	// DDC/OLE-friendly mixtures.
	inputs = append(inputs, redundantMatrix(rng, 150, 6, 0.5, 3))
	seen := map[string]bool{}
	for i, a := range inputs {
		m := Compress(a)
		for _, k := range m.GroupKinds() {
			seen[k] = true
		}
		got, err := Deserialize(m.Serialize())
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if !got.Decode().Equal(a) {
			t.Fatalf("input %d: decode mismatch", i)
		}
	}
	for _, k := range []string{"RLE", "UC"} {
		if !seen[k] {
			t.Errorf("layout %s never exercised (saw %v)", k, seen)
		}
	}
}

func TestDeserializeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := redundantMatrix(rng, 40, 6, 0.5, 3)
	img := Compress(a).Serialize()

	if _, err := Deserialize(nil); err == nil {
		t.Fatal("nil should error")
	}
	bad := append([]byte(nil), img...)
	bad[0] = 0x99
	if _, err := Deserialize(bad); err == nil {
		t.Fatal("bad magic should error")
	}
	for cut := 4; cut < len(img); cut += 13 {
		if _, err := Deserialize(img[:cut]); err == nil {
			t.Fatalf("truncation at %d should error", cut)
		}
	}
}

func TestDeserializeByteFlipsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := redundantMatrix(rng, 25, 4, 0.5, 3)
	img := Compress(a).Serialize()
	f := func(pos int, flip byte) bool {
		if flip == 0 {
			flip = 0xff
		}
		p := pos % len(img)
		if p < 0 {
			p = -p
		}
		bad := append([]byte(nil), img...)
		bad[p] ^= flip
		defer func() { recover() }()
		m, err := Deserialize(bad)
		if err == nil {
			m.Decode()
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// A run's length is packed at the offsets' width, BytesPerInt(rows-1),
// which cannot hold rows itself when rows is a power of 256: a constant
// non-zero column of 256 rows, one run over every row, must still come
// back (as two runs), and the row counts either side of it keep their
// one run.
func TestSerializeRoundTripRunOverEveryRow(t *testing.T) {
	for _, rows := range []int{255, 256, 257} {
		a := matrix.NewDense(rows, 1)
		for i := 0; i < rows; i++ {
			a.Set(i, 0, 3)
		}
		m := Compress(a)
		if !slices.Contains(m.GroupKinds(), "RLE") {
			t.Fatalf("%d rows: kinds %v, want an RLE group for the constant column", rows, m.GroupKinds())
		}
		img := m.Serialize()
		if len(img) != m.CompressedSize() {
			t.Fatalf("%d rows: image %d bytes != CompressedSize %d", rows, len(img), m.CompressedSize())
		}
		got, err := Deserialize(img)
		if err != nil {
			t.Fatalf("%d rows: %v", rows, err)
		}
		if !got.Decode().Equal(a) {
			t.Fatalf("%d rows: round trip decode mismatch (kinds %v)", rows, m.GroupKinds())
		}
	}
}
