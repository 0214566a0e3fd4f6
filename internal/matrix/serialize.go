package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The DEN wire format, per the paper's baseline: the matrix is stored row by
// row with each value in IEEE-754 double format, preceded by a small header
// carrying the dimensions.

const denHeaderSize = 16 // two uint64 dims

// maxDenDim bounds each decoded dimension, as every other scheme's header
// is bounded, so a forged header cannot size an enormous matrix; at this
// bound 8·rows·cols cannot overflow an int.
const maxDenDim = 1 << 27

// SerializedSize returns the number of bytes Serialize produces.
func (d *Dense) SerializedSize() int {
	return denHeaderSize + 8*len(d.data)
}

// Serialize encodes the matrix in the DEN binary format.
func (d *Dense) Serialize() []byte {
	buf := make([]byte, d.SerializedSize())
	binary.LittleEndian.PutUint64(buf[0:8], uint64(d.rows))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(d.cols))
	off := denHeaderSize
	for _, v := range d.data {
		binary.LittleEndian.PutUint64(buf[off:off+8], math.Float64bits(v))
		off += 8
	}
	return buf
}

// DeserializeDense decodes a DEN binary image produced by Serialize.
func DeserializeDense(buf []byte) (*Dense, error) {
	if len(buf) < denHeaderSize {
		return nil, fmt.Errorf("matrix: DEN image too short: %d bytes", len(buf))
	}
	r, c := binary.LittleEndian.Uint64(buf[0:8]), binary.LittleEndian.Uint64(buf[8:16])
	if r > maxDenDim || c > maxDenDim {
		return nil, fmt.Errorf("matrix: DEN image claims implausible dims %dx%d", r, c)
	}
	rows, cols := int(r), int(c)
	if want := denHeaderSize + 8*rows*cols; len(buf) != want {
		return nil, fmt.Errorf("matrix: DEN image size %d != expected %d for %dx%d", len(buf), want, rows, cols)
	}
	d := NewDense(rows, cols)
	off := denHeaderSize
	for i := range d.data {
		d.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off : off+8]))
		off += 8
	}
	return d, nil
}
