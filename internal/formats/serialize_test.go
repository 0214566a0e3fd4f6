package formats

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"toc/internal/data"
)

// Every scheme must serialize to exactly CompressedSize bytes and round
// trip through its registered decoder.
func TestWireRoundTripAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := redundantMatrix(rng, 45, 18, 0.4, 4)
	for _, name := range Names() {
		codec := MustGetCodec(name)
		c := codec.Encode(a)
		img := c.Serialize()
		if len(img) != c.CompressedSize() {
			t.Errorf("%s: image %d bytes != CompressedSize %d", name, len(img), c.CompressedSize())
		}
		got, err := codec.Decode(img)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if got.Rows() != 45 || got.Cols() != 18 {
			t.Errorf("%s: round-trip dims %dx%d", name, got.Rows(), got.Cols())
		}
		if !got.Decode().Equal(a) {
			t.Errorf("%s: round-trip matrix mismatch", name)
		}
		if got.CompressedSize() != c.CompressedSize() {
			t.Errorf("%s: round-trip size %d != %d", name, got.CompressedSize(), c.CompressedSize())
		}
	}
}

// Decoders must reject images of the wrong scheme and truncations.
func TestWireRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := redundantMatrix(rng, 20, 10, 0.5, 3)
	images := map[string][]byte{}
	for _, name := range Names() {
		images[name] = MustGetCodec(name).Encode(a).Serialize()
	}
	for _, name := range Names() {
		codec := MustGetCodec(name)
		if _, err := codec.Decode(nil); err == nil {
			t.Errorf("%s: nil image should error", name)
		}
		img := images[name]
		for cut := 1; cut < len(img); cut += 97 {
			if _, err := codec.Decode(img[:cut]); err == nil {
				t.Errorf("%s: truncation at %d should error", name, cut)
				break
			}
		}
		// Cross-scheme confusion: feed every other scheme's image.
		for other, oimg := range images {
			if wireFamily(other) == wireFamily(name) {
				continue
			}
			if _, err := codec.Decode(oimg); err == nil {
				t.Errorf("%s: accepted a %s image", name, other)
			}
		}
	}
}

// wireFamily names the decoder a scheme's images share: the TOC variants
// with a logical layer are all core images, and TOC_SPARSE is CSR.
func wireFamily(name string) string {
	switch name {
	case "TOC", "TOC_FULL", "TOC_SPARSE_AND_LOGICAL":
		return "TOC"
	case "TOC_SPARSE":
		return "CSR"
	}
	return name
}

// Single-byte flips must never panic in Decode (error or valid parse only).
func TestWireByteFlipsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := redundantMatrix(rng, 12, 6, 0.5, 3)
	for _, name := range Names() {
		codec := MustGetCodec(name)
		img := codec.Encode(a).Serialize()
		step := 1
		if len(img) > 600 {
			step = len(img) / 300
		}
		for pos := 0; pos < len(img); pos += step {
			bad := append([]byte(nil), img...)
			bad[pos] ^= 0xff
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic at byte %d: %v", name, pos, r)
					}
				}()
				c, err := codec.Decode(bad)
				if err == nil {
					c.Decode()
				}
			}()
		}
	}
}

// serializeGolden is the CRC-32 (IEEE) of Serialize() for every
// registered scheme on one 250-row imagenet batch (seed 1). The schemes'
// writers and readers may be rewritten, but not their bytes.
var serializeGolden = map[string]uint32{
	"CLA":                    0xbd3b3e37,
	"CSR":                    0x287eb8a9,
	"CVI":                    0x8e84a144,
	"DEN":                    0xd96a48ee,
	"DVI":                    0x3f2d3b8e,
	"Gzip":                   0x9487c75b,
	"Snappy":                 0xbc70f5e8,
	"TOC":                    0xcea3d482,
	"TOC_FULL":               0xcea3d482,
	"TOC_SPARSE":             0x287eb8a9,
	"TOC_SPARSE_AND_LOGICAL": 0xaf52597f,
}

// Every scheme's image is pinned byte for byte, and reading it back and
// serializing again reproduces it.
func TestSerializeGoldenCRC(t *testing.T) {
	ds, err := data.Generate("imagenet", 250, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		codec := MustGetCodec(name)
		img := codec.Encode(ds.X).Serialize()
		if got, want := crc32.ChecksumIEEE(img), serializeGolden[name]; got != want {
			t.Errorf("%s: image CRC %#08x, want %#08x", name, got, want)
		}
		back, err := codec.Decode(img)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(back.Serialize(), img) {
			t.Errorf("%s: decoded image re-serializes to other bytes", name)
		}
	}
}
