package snappy

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	enc := Encode(src)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode(%d bytes): %v", len(src), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
	}
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil)
	enc := Encode(nil)
	if len(enc) != 1 || enc[0] != 0 {
		t.Fatalf("Encode(nil) = %v, want [0]", enc)
	}
}

func TestRoundTripShortLiterals(t *testing.T) {
	roundTrip(t, []byte("a"))
	roundTrip(t, []byte("abc"))
	roundTrip(t, []byte("abcdefg"))
}

func TestLiteralGolden(t *testing.T) {
	// "abc" cannot contain a 4-byte match: expect uvarint(3), tag literal
	// len 3 ((3-1)<<2 = 0x08), then the bytes.
	enc := Encode([]byte("abc"))
	want := []byte{3, 0x08, 'a', 'b', 'c'}
	if !bytes.Equal(enc, want) {
		t.Fatalf("Encode(abc) = %v, want %v", enc, want)
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("0123456789"), 1000)
	enc := Encode(src)
	if len(enc) >= len(src)/5 {
		t.Fatalf("repetitive input should compress >5x: %d -> %d", len(src), len(enc))
	}
	roundTrip(t, src)
}

func TestRoundTripAllZero(t *testing.T) {
	// Snappy copies carry at most 64 bytes per 3-byte element, so zero runs
	// cap out near 64/3 ≈ 21x.
	src := make([]byte, 100000)
	enc := Encode(src)
	if len(enc) >= len(src)/15 {
		t.Fatalf("zeros should compress >15x: %d -> %d", len(src), len(enc))
	}
	roundTrip(t, src)
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 10, 100, 1000, 65535, 65536, 65537, 200000} {
		src := make([]byte, n)
		rng.Read(src)
		roundTrip(t, src)
	}
}

func TestRoundTripMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var b bytes.Buffer
	for i := 0; i < 50; i++ {
		switch rng.Intn(3) {
		case 0:
			b.WriteString(strings.Repeat("x", rng.Intn(300)))
		case 1:
			chunk := make([]byte, rng.Intn(300))
			rng.Read(chunk)
			b.Write(chunk)
		default:
			b.WriteString("the quick brown fox jumps over the lazy dog ")
		}
	}
	roundTrip(t, b.Bytes())
}

func TestRoundTripLongMatches(t *testing.T) {
	// Matches longer than 64 exercise the chunked copy emission.
	src := append([]byte("HEADER--"), bytes.Repeat([]byte("Z"), 500)...)
	src = append(src, []byte("TRAILER")...)
	roundTrip(t, src)
	// Length exactly at the 68/64 chunking boundaries.
	for _, n := range []int{63, 64, 65, 66, 67, 68, 69, 127, 128, 132} {
		s := append([]byte("abcdefgh"), bytes.Repeat([]byte("abcdefgh"), (n/8)+2)...)
		roundTrip(t, s[:8+n])
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		got, err := Decode(Encode(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property over compressible structured data (closer to DEN matrix bytes).
func TestRoundTripStructuredProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vocab := make([][]byte, 4)
		for i := range vocab {
			vocab[i] = make([]byte, 8+rng.Intn(24))
			rng.Read(vocab[i])
		}
		var b bytes.Buffer
		for i := 0; i < 200; i++ {
			b.Write(vocab[rng.Intn(len(vocab))])
		}
		src := b.Bytes()
		got, err := Decode(Encode(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{0x80},                  // truncated uvarint
		{5, 0x08, 'a'},          // literal shorter than declared
		{2, 0xF0},               // literal tag with missing length bytes
		{8, 0x00, 'a', 0x01, 0}, // copy1 with offset 0 / beyond written
		{4, 0x0C, 'a', 'b', 'c', 'd', 0x01, 0xFF}, // copy1 offset too large
		{3, 0x08, 'a', 'b', 'c', 0x08, 'd', 'e'},  // writes past declared len
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
}

func TestDecodeCopy4(t *testing.T) {
	// Hand-built stream using a copy4 element, which the encoder never
	// emits but the decoder must accept: literal "abcd", then copy len 4
	// offset 4 (via 4-byte offset).
	src := []byte{
		8,                        // decoded length 8
		0x0C, 'a', 'b', 'c', 'd', // literal len 4
		3<<2 | tagCopy4, 4, 0, 0, 0, // copy len 4, offset 4
	}
	got, err := Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdabcd" {
		t.Fatalf("got %q", got)
	}
}

func TestDecodeOverlappingCopy(t *testing.T) {
	// RLE via overlapping copy: literal "ab", copy len 6 offset 2.
	src := []byte{
		8,
		0x04, 'a', 'b', // literal len 2
		5<<2 | tagCopy2, 2, 0, // copy len 6, offset 2
	}
	got, err := Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abababab" {
		t.Fatalf("got %q", got)
	}
}

func TestDecodedLen(t *testing.T) {
	src := bytes.Repeat([]byte("q"), 12345)
	n, err := DecodedLen(Encode(src))
	if err != nil || n != 12345 {
		t.Fatalf("DecodedLen = %d, %v", n, err)
	}
	if _, err := DecodedLen([]byte{0x80}); err == nil {
		t.Fatal("truncated preamble should error")
	}
}

func TestMaxEncodedLenBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 100, 65536, 300000} {
		src := make([]byte, n)
		rng.Read(src)
		if got := len(Encode(src)); got > maxEncodedLen(n) {
			t.Fatalf("encoded %d bytes for input %d exceeds bound %d", got, n, maxEncodedLen(n))
		}
	}
}
