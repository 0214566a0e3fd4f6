package matrix

import (
	"encoding/binary"
	"fmt"

	"toc/internal/bitpack"
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
	buf := make([]byte, 0, d.SerializedSize())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.rows))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.cols))
	return bitpack.AppendF64s(buf, d.data)
}

// DeserializeDense decodes a DEN binary image produced by Serialize.
func DeserializeDense(buf []byte) (*Dense, error) {
	r := bitpack.NewReader(buf)
	rows, cols := r.U64(), r.U64()
	if rows > maxDenDim || cols > maxDenDim {
		return nil, fmt.Errorf("matrix: DEN image claims implausible dims %dx%d", rows, cols)
	}
	d := &Dense{rows: int(rows), cols: int(cols), data: r.F64s(int(rows * cols))}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("matrix: DEN image: %w", err)
	}
	return d, nil
}
