package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"toc/internal/bitpack"
)

// Physical encoding (§3.2): the logical outputs are serialized to
// bytes. For the Full variant, integer arrays (column indexes of I, value
// indexes, the codes of D′, tuple start indexes) are bit packed and the
// float values of I are value-indexed, as in Figure 3. The SparseLogical
// ablation variant has no physical layer: its image is a Full image
// whose packed sections are all 4 bytes an integer and whose dictionary
// holds each pair's value, so it has no index section (imageTops).
//
// Unlike Figure 3, the image holds D in resident form (decodetree.go):
// D′ in live ids, then the creation bitmap, bit q of byte q/8 set iff
// position q created a live node. An image of the paper-numbered D cost
// every read a renumbering and every write the inverse map; the bitmap
// costs |D|/8 bytes, less what narrower codes save (README).
//
// Value indexing pays only when values repeat. When the dictionary has
// exactly |I| entries (on imagenet, every batch: every value is
// distinct), the index section would be the identity map, so the image
// writes the values in pair order and no index section. The count says
// which: the reader knows |I| from the column section before it reads
// the dictionary's count.
//
// Image layout (little-endian), one for both variants:
//
//	header: "TOCB" | version=4 | variant | rows u32 | cols u32
//	bitpack(I.cols) | u32 n, f64 dict[n] |
//	bitpack(each pair's dictionary index), absent iff n = |I| |
//	bitpack(D′) | created[⌈|D|/8⌉] | bitpack(D.starts)

const (
	imageMagic   = "TOCB"
	imageVersion = 4
	headerSize   = 4 + 1 + 1 + 4 + 4
)

// Serialize returns the physical byte image of the batch. A batch
// Deserialize made returns the image it was read from. Any other batch
// keeps none and writes it here, on every call, from its resident form,
// which the image holds as it is. It is not cached — a cache would put
// the image of every batch Serialize ever saw, resident ones included,
// back in RAM.
func (b *Batch) Serialize() []byte {
	if b.img != nil {
		return b.img
	}
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	return e.image(b)
}

// image serializes b in one exactly-sized allocation. Every section's
// length follows from counts known up front (imageSize), and every
// section is written in bulk.
//
// The Full image's first layer is value-indexed as in §3.2: the
// dictionary once, then a bit-packed dictionary index per pair — the
// batch's own dictionary and indexes, split out of its words with its
// columns (splitPairs). A dictionary of |I| entries is written instead
// as each pair's value in pair order, with no index section; every batch
// holds such a dictionary in that order (Compress, Deserialize, and
// mapValues through remapPairs), so that is the dictionary as it is. A
// SparseLogical batch always holds one. For a batch Compress or Scale
// made the bytes are exactly what the map oracle writes with its own
// element-by-element packer and a first-appearance dictionary
// (TestEncoderMatchesMapOracle), and readImage reads them back.
func (e *encoder) image(b *Batch) []byte {
	d := &b.d
	e.col, e.occ = fit(e.col, b.i.len()), fit(e.occ, b.i.len())
	var colTop uint32
	if b.i.isWide() {
		colTop = splitPairs(b.i.wide, e.col, e.occ)
	} else {
		colTop = splitPairs(b.i.narrow, e.col, e.occ)
	}
	t := b.imageTops(colTop)
	vals := b.i.vals
	out := b.appendHeader(make([]byte, 0, b.imageSize(t)))
	out = bitpack.AppendArray(out, e.col, t.col)
	out = binary.LittleEndian.AppendUint32(out, uint32(t.distinct))
	if t.distinct == len(e.occ) {
		for _, x := range e.occ {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(vals[x]))
		}
	} else {
		out = bitpack.AppendF64s(out, vals)
		out = bitpack.AppendArray(out, e.occ, occTop(t.distinct))
	}
	if d.isWide() {
		out = bitpack.AppendArray(out, d.wide, t.code)
	} else {
		out = bitpack.AppendArray(out, d.narrow, t.code)
	}
	out = appendBitmap(out, d.created, d.len())
	return bitpack.AppendArray(out, d.starts, t.start)
}

// splitPairs writes every word's column to col and dictionary index to
// idx, and returns the largest column.
func splitPairs[W pairWord](words []W, col, idx []uint32) uint32 {
	half, low := halves[W]()
	col, idx = col[:len(words)], idx[:len(words)]
	var top uint32
	for k, w := range words {
		c := uint32(w >> half)
		col[k], idx[k] = c, uint32(w&low)
		top = max(top, c)
	}
	return top
}

// IndexValues is §3.2's value indexing of vals: it returns the distinct
// values in first-appearance order and, for each value, its index there.
// Values are the same when their bits are: -0 and +0 are two entries,
// and a NaN is one like any other, so the dictionary gives every bit
// back. It runs the pooled dictionary Compress interns a first layer's
// values with (valueIndex), and allocates the two slices it returns and
// nothing else once the table has grown to fit. The table starts at the
// size the last run needed and doubles from there: DVI indexes every cell
// of a batch, a few hundred distinct values among hundreds of thousands,
// and a table sized for every value would be megabytes to clear a call.
func IndexValues(vals []float64) (dict []float64, idx []uint32) {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	idx = make([]uint32, len(vals))
	e.vals = e.valueIndex(vals, e.vals[:0], idx, e.dict.n)
	return exactCopy(e.vals), idx
}

// valueIndex interns vals on their bits, in order, as §3.2 indexes a
// first layer's values: it appends each distinct value to dict, in
// first-appearance order, sets occ[j] to value j's index there, and
// returns dict. Bits, like the encoder's pairs: -0 and +0 are two
// entries, and a NaN is one like any other. dict may be vals[:0], since
// an entry is appended only after it is read. The table starts sized for
// distinct entries and doubles past them.
func (e *encoder) valueIndex(vals, dict []float64, occ []uint32, distinct int) []float64 {
	e.dict.reset(distinct)
	occ = occ[:len(vals)]
	for j, v := range vals {
		id, added := e.dict.intern(math.Float64bits(v), 0, uint32(len(dict))+1)
		if added {
			dict = append(dict, v)
		}
		occ[j] = id - 1
	}
	return dict
}

// sizeImage fixes b.size, for a batch that keeps no image, to the length
// of the one Serialize writes, from counts alone: the section lengths,
// the dictionary's, and the largest column index and code.
func (b *Batch) sizeImage() { b.size = b.imageSize(b.imageTops(b.i.colTop())) }

// tops is what an image's length and widths follow from beyond b's
// counts: the value each packed section is sized for — I's columns,
// D′'s codes, the tuple starts — and the value dictionary's count.
type tops struct {
	col, code, start uint32
	distinct         int
}

// imageTops returns the tops of b's image, colTop the largest column I
// names. A Full image packs every section at the width of its largest
// value: colTop, the largest live id and |D|, and counts b's dictionary.
// A SparseLogical image has no physical layer: every section is sized
// for math.MaxUint32, 4 bytes an integer, and the count is |I|, so its
// values are written in pair order and no index section follows.
func (b *Batch) imageTops(colTop uint32) tops {
	if b.variant == SparseLogical {
		return tops{math.MaxUint32, math.MaxUint32, math.MaxUint32, b.i.len()}
	}
	return tops{colTop, uint32(b.i.len() + b.d.live), uint32(b.d.len()), len(b.i.vals)}
}

// imageSize is the length of b's image of tops t: the header, I's
// columns, the value dictionary and, unless it has |I| entries, each
// pair's index into it, D′'s codes, the creation bitmap and the tuple
// starts.
func (b *Batch) imageSize(t tops) int {
	lenI, lenD := b.i.len(), b.d.len()
	n := headerSize + bitpack.ArraySize(lenI, t.col) + 4 + 8*t.distinct +
		bitpack.ArraySize(lenD, t.code) + bitmapSize(lenD) + bitpack.ArraySize(b.Rows()+1, t.start)
	if t.distinct != lenI {
		n += bitpack.ArraySize(lenI, occTop(t.distinct))
	}
	return n
}

// occTop is the largest dictionary index of a dictionary of distinct
// values (zero for an empty one, which packs no index).
func occTop(distinct int) uint32 { return uint32(max(distinct, 1) - 1) }

// bitmapSize is the length of the creation bitmap of lenD codes.
func bitmapSize(lenD int) int { return (lenD + 7) / 8 }

// appendBitmap appends the creation bitmap words of lenD codes to dst as
// bitmapSize(lenD) little-endian bytes.
func appendBitmap(dst []byte, words []uint64, lenD int) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, bitmapSize(lenD))...)
	out := dst[at:]
	for k, w := range words {
		var le [8]byte
		binary.LittleEndian.PutUint64(le[:], w)
		copy(out[8*k:], le[:])
	}
	return dst
}

// appendHeader appends the shared image header to dst.
func (b *Batch) appendHeader(dst []byte) []byte {
	dst = append(append(dst, imageMagic...), imageVersion, byte(b.variant))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Rows()))
	return binary.LittleEndian.AppendUint32(dst, uint32(b.cols))
}

// Deserialize reconstructs a Batch from a physical image produced by
// Serialize, validating structural invariants so corrupt images return an
// error rather than corrupting kernel execution.
//
// An image is read in one pass over its sections straight into the
// arrays the batch keeps (readImage), and the call allocates only those:
// the Batch, I's words with the tuple starts, the value dictionary, D′
// and the creation bitmap. The batch aliases img.
// On an imagenet batch of the benchmark's shape (|I| 1739, |D| 7402)
// that is 5 allocations and 40 KB (BenchmarkDeserialize,
// TestDeserializeAllocBytes) — or none, when a batch Recycle took back is
// large enough: its memory is filled instead, every array overwritten
// before anything reads it.
// Which memory a batch is read into changes neither its bits nor which
// images are accepted.
func Deserialize(img []byte) (*Batch, error) {
	b, _ := batchPool.Get().(*Batch)
	if b == nil {
		b = new(Batch)
	}
	if err := deserializeInto(b, img); err != nil {
		batchPool.Put(b) // still recycled memory: readD leaves b alone on an error
		return nil, err
	}
	return b, nil
}

// deserializeInto reads img into b, reusing b's arrays where they fit.
func deserializeInto(b *Batch, img []byte) error {
	if len(img) < headerSize {
		return fmt.Errorf("core: image too short: %d bytes", len(img))
	}
	if string(img[:4]) != imageMagic {
		return fmt.Errorf("core: bad magic %q", img[:4])
	}
	if img[4] != imageVersion {
		return fmt.Errorf("core: unsupported version %d", img[4])
	}
	v := Variant(img[5])
	if v > SparseLogical {
		return fmt.Errorf("core: unknown variant %d", img[5])
	}
	rows := int(binary.LittleEndian.Uint32(img[6:10]))
	cols := int(binary.LittleEndian.Uint32(img[10:14]))
	// Bound dimensions so corrupt headers cannot trigger enormous
	// allocations in Decode or the kernels.
	const maxDim = 1 << 27
	if rows > maxDim || cols > maxDim {
		return fmt.Errorf("core: implausible dims %dx%d", rows, cols)
	}
	return readImage(b, rows, cols, v, img)
}

// readImage reads an image of variant v into b. Both variants have the
// one layout, so the variant settles one thing only: a SparseLogical
// image with an index section is refused, since a SparseLogical
// dictionary is I's values in order (batch.go).
//
// Every section header is read by value (bitpack.ReadArray) and every
// length checked before anything is allocated; then each section is read
// once, in bulk, into the array the batch keeps: the tuple starts and
// I's words (carve), the value dictionary, copied as it is, the creation
// bitmap and D′ (readD picks its width). A dictionary of |I| entries,
// |I| known from the column section, is followed by no index section:
// pair k names entry k, and only the columns are unpacked into the
// words, each checked against cols (unpackColumns). Any other count is
// followed by the index section, and the two are unpacked together into
// the words, each column checked against cols and each index against the
// dictionary's length (unpackPairs). Either way, an image Serialize
// wrote reads back as the resident form it was written from.
//
// The accepted language is wider than the images Serialize writes: an
// image is accepted iff its sections parse, every index is in range, its
// resident form passes checkResident and, for SparseLogical, it has no
// index section. Nothing asks it to be canonical — its value dictionary
// may repeat a value, hold one no pair names or list them out of
// first-appearance order, and a section may be packed at any width that
// holds its values, so a Full image may be 4 bytes an integer and a
// SparseLogical one narrower. The batch keeps the dictionary it read:
// Serialize returns the bytes that were read, and the batch with its
// image dropped writes its own resident form at its variant's widths. A
// pass that refused or rewrote a non-canonical image would cost every
// spilled read and buy nothing a kernel can see.
func readImage(b *Batch, rows, cols int, v Variant, img []byte) error {
	colSec, buf, err := bitpack.ReadArray(img[headerSize:])
	if err != nil {
		return fmt.Errorf("core: I columns: %w", err)
	}
	if len(buf) < 4 {
		return fmt.Errorf("core: I values: truncated value dictionary")
	}
	distinct, buf := int(binary.LittleEndian.Uint32(buf)), buf[4:]
	if len(buf) < 8*distinct {
		return fmt.Errorf("core: I values: truncated value dictionary")
	}
	dict, buf := buf[:8*distinct], buf[8*distinct:]
	indexed := distinct != colSec.Len()
	var idxSec bitpack.Array
	if indexed {
		if v == SparseLogical {
			return fmt.Errorf("core: a SparseLogical image with %d dictionary entries for %d pairs", distinct, colSec.Len())
		}
		if idxSec, buf, err = bitpack.ReadArray(buf); err != nil {
			return fmt.Errorf("core: I values: %w", err)
		}
		if colSec.Len() != idxSec.Len() {
			return fmt.Errorf("core: I columns (%d) and values (%d) disagree", colSec.Len(), idxSec.Len())
		}
	}
	codeSec, buf, err := bitpack.ReadArray(buf)
	if err != nil {
		return fmt.Errorf("core: D′: %w", err)
	}
	lenD := codeSec.Len()
	if len(buf) < bitmapSize(lenD) {
		return fmt.Errorf("core: truncated creation bitmap")
	}
	bitmap, buf := buf[:bitmapSize(lenD)], buf[bitmapSize(lenD):]
	startSec, buf, err := bitpack.ReadArray(buf)
	if err != nil {
		return fmt.Errorf("core: D starts: %w", err)
	}
	if len(buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes", len(buf))
	}
	if startSec.Len() != rows+1 {
		return fmt.Errorf("core: starts length %d != rows+1 (%d)", startSec.Len(), rows+1)
	}
	I, starts := carve(b.i, colSec.Len(), rows, !narrowFits(cols, distinct))
	startSec.UnpackRange(starts, 0, len(starts))
	I.vals = fit(b.i.vals, distinct)
	getF64s(I.vals, dict)
	switch {
	case indexed && I.isWide():
		err = unpackPairs(I.wide, &colSec, &idxSec, cols, len(I.vals))
	case indexed:
		err = unpackPairs(I.narrow, &colSec, &idxSec, cols, len(I.vals))
	case I.isWide():
		err = unpackColumns(I.wide, &colSec, cols)
	default:
		err = unpackColumns(I.narrow, &colSec, cols)
	}
	if err != nil {
		return err
	}
	return readD(b, cols, v, I, starts, bitmap, &codeSec, img)
}

// unpackPairs unpacks a Full image's column and dictionary-index
// sections into I's words, a window at a time onto the stack, checking
// every column against cols and every index against the dictionary's
// length n.
func unpackPairs[W pairWord](words []W, colSec, idxSec *bitpack.Array, cols, n int) error {
	half, _ := halves[W]()
	var cw, xw [256]uint32
	for lo := 0; lo < len(words); lo += len(cw) {
		part := words[lo:min(lo+len(cw), len(words))]
		c, x := cw[:len(part)], xw[:len(part)]
		colSec.UnpackRange(c, lo, lo+len(part))
		idxSec.UnpackRange(x, lo, lo+len(part))
		for k := range part {
			if uint(c[k]) >= uint(cols) {
				return fmt.Errorf("core: I[%d] column %d out of range %d", lo+k, c[k], cols)
			}
			if uint(x[k]) >= uint(n) {
				return fmt.Errorf("core: I[%d] value index %d out of range %d", lo+k, x[k], n)
			}
			part[k] = W(c[k])<<half | W(x[k])
		}
	}
	return nil
}

// unpackColumns unpacks the column section of a Full image with no
// index section into I's words, a window at a time onto the stack,
// checking every column against cols; pair k names dictionary entry k.
func unpackColumns[W pairWord](words []W, colSec *bitpack.Array, cols int) error {
	half, _ := halves[W]()
	var cw [256]uint32
	for lo := 0; lo < len(words); lo += len(cw) {
		part := words[lo:min(lo+len(cw), len(words))]
		c := cw[:len(part)]
		colSec.UnpackRange(c, lo, lo+len(part))
		for k := range part {
			if uint(c[k]) >= uint(cols) {
				return fmt.Errorf("core: I[%d] column %d out of range %d", lo+k, c[k], cols)
			}
			part[k] = W(c[k])<<half | W(lo+k)
		}
	}
	return nil
}

// getF64s decodes len(dst) little-endian float64s from src, which the
// caller has length-checked.
func getF64s(dst []float64, src []byte) {
	for ; len(dst) > 0 && len(src) >= 8; dst, src = dst[1:], src[8:] {
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(src))
	}
}

// readD finishes reading an image into b, given its I and tuple starts
// in b's memory or new arrays: it checks the starts, reads the creation
// bitmap into b's (or a new one), unpacks the D′ section into an array
// at the width the live count needs, b's when it fits, and checks the
// result (checkResident). A bit at a tuple's last position is refused:
// Algorithm 1 creates a node at every position of a tuple but its last.
// A bit past |D| counts a live node no code can name, which
// checkResident refuses. On an error b is left as it was.
func readD(b *Batch, cols int, v Variant, I firstLayer, starts []uint32, bitmap []byte, codeSec *bitpack.Array, img []byte) error {
	lenD := codeSec.Len()
	prev := uint32(0)
	for k, s := range starts {
		if s < prev {
			return fmt.Errorf("core: starts not monotone at %d", k)
		}
		prev = s
	}
	if starts[0] != 0 || int(prev) != lenD {
		return fmt.Errorf("core: starts endpoints invalid")
	}
	created := fit(b.d.created, (lenD+63)/64)
	for k := range created {
		var le [8]byte
		copy(le[:], bitmap[8*k:])
		created[k] = binary.LittleEndian.Uint64(le[:])
	}
	for r := 1; r < len(starts); r++ {
		if lo, hi := starts[r-1], starts[r]; lo < hi && created[(hi-1)>>6]>>((hi-1)&63)&1 != 0 {
			return fmt.Errorf("core: creation bit set at D position %d, the end of tuple %d", hi-1, r-1)
		}
	}
	d := residentD{starts: starts, created: created}
	for _, w := range created {
		d.live += bits.OnesCount64(w)
	}
	if 1+I.len()+d.live <= 1<<16 {
		d.narrow = fit(b.d.narrow, lenD)
		if !codeSec.Unpack16(d.narrow) {
			return fmt.Errorf("core: D′ holds a code wider than the live tree's 16 bits")
		}
	} else {
		d.wide = fit(b.d.wide, lenD)
		codeSec.UnpackRange(d.wide, 0, lenD)
	}
	sc := liveScratchPool.Get().(*liveScratch)
	defer liveScratchPool.Put(sc)
	if err := checkResident(I.len(), &d, sc); err != nil {
		return err
	}
	*b = Batch{cols: cols, variant: v, i: I, d: d, size: len(img), img: img}
	return nil
}

// checkResident is the one check of a D in resident form, an image's or
// the one Compress renumbered: every code names a live node that exists
// at its position — a first-layer node or a deep one created before it
// (checkCodes) — and every live node is named by some code. Algorithm 1
// references every first-layer pair, and a deep node is live only if D
// references it, so a pair or a creation bit nothing names would be a
// node no tuple reaches. A D that passes is the resident form of a valid
// Algorithm 1 D: D′ in the paper's numbering.
func checkResident(lenI int, d *residentD, sc *liveScratch) error {
	size := 1 + lenI + d.live
	if cap(sc.mark) < size {
		sc.mark = make([]byte, size)
	}
	mark := sc.mark[:size]
	clear(mark)
	q := -1
	if d.isWide() {
		q = checkCodes(d.wide, d.created, lenI, mark)
	} else {
		q = checkCodes(d.narrow, d.created, lenI, mark)
	}
	if q >= 0 {
		return fmt.Errorf("core: the code at D position %d names no node that exists there", q)
	}
	if k := bytes.IndexByte(mark[1:], 0) + 1; k > lenI {
		return fmt.Errorf("core: live node %d is not referenced by D", k)
	} else if k > 0 {
		return fmt.Errorf("core: first-layer pair %d is not referenced by D", k-1)
	}
	return nil
}

// checkCodes is the one pass over D′: code n at position q must be in
// 1..|I|+k, k the creation bits before q — the live nodes that exist
// once Algorithm 1 has emitted positions 0..q-1, including one the
// previous position created (the self-referencing code of a repeated
// sequence) — and it marks the node it names. It returns the position
// of the first code out of range, or -1.
//
//go:noinline
func checkCodes[N code](nodes []N, created []uint64, lenI int, mark []byte) int {
	limit := uint(lenI)
	for wi, w := range created {
		lo := wi << 6
		for j, n := range nodes[lo:min(lo+64, len(nodes))] {
			if uint(n)-1 >= limit { // n == 0 wraps around
				return lo + j
			}
			mark[n] = 1
			limit += uint(w & 1)
			w >>= 1
		}
	}
	return -1
}
