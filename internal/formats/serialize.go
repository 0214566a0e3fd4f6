package formats

import (
	"fmt"

	"toc/internal/bitpack"
)

// The reference schemes' wire images. Every one starts with a 16-byte
// header: one magic byte identifying the scheme, three reserved bytes,
// rows u32, cols u32, and a scheme-specific u32 (usually nnz). The
// sections behind it are written with bitpack.AppendU32s/AppendF64s and
// read back through bitpack.Reader, the one bounds-checked reader of the
// persisted images, so a count the bytes cannot back is refused before
// anything is sized by it. DEN's image is matrix.Dense's and CLA's is
// cla.Matrix's; they read through the same Reader.

const wireHeaderSize = 16

const (
	magicCSR    = 0x11
	magicCVI    = 0x12
	magicDVI    = 0x13
	magicGzip   = 0x14
	magicSnappy = 0x15
)

func putHeader(dst []byte, magic byte, rows, cols, extra int) []byte {
	return bitpack.AppendU32s(append(dst, magic, 0, 0, 0), []uint32{uint32(rows), uint32(cols), uint32(extra)})
}

// dictTop is the largest index into dict, the top CVI and DVI pack their
// value indexes for: every entry of a first-appearance dictionary is
// used, so it is the largest index they hold (zero for an empty one).
func dictTop(dict []float64) uint32 { return uint32(max(len(dict), 1) - 1) }

// maxWireDim bounds deserialized dimensions so corrupt headers cannot
// trigger enormous allocations downstream.
const maxWireDim = 1 << 27

// readHeader reads the 16-byte header an image starts with and returns
// its rows, cols and scheme-specific count.
func readHeader(r *bitpack.Reader, magic byte) (rows, cols, extra int, err error) {
	m := r.U8()
	r.Take(3) // reserved
	rows, cols, extra = int(r.U32()), int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return 0, 0, 0, fmt.Errorf("formats: image header: %w", err)
	}
	if m != magic {
		return 0, 0, 0, fmt.Errorf("formats: wrong magic %#x, want %#x", m, magic)
	}
	if rows > maxWireDim || cols > maxWireDim {
		return 0, 0, 0, fmt.Errorf("formats: implausible dims %dx%d", rows, cols)
	}
	return rows, cols, extra, nil
}

// validateCSRParts checks the shared invariants of CSR-shaped arrays.
func validateCSRParts(rows, cols int, starts, colIdx []uint32, nnz int) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("formats: negative dims %dx%d", rows, cols)
	}
	if len(starts) != rows+1 {
		return fmt.Errorf("formats: starts length %d != rows+1", len(starts))
	}
	prev := uint32(0)
	for i, s := range starts {
		if s < prev {
			return fmt.Errorf("formats: starts not monotone at %d", i)
		}
		prev = s
	}
	if starts[0] != 0 || int(starts[rows]) != nnz {
		return fmt.Errorf("formats: starts endpoints invalid")
	}
	for i, c := range colIdx {
		if int(c) >= cols {
			return fmt.Errorf("formats: column %d out of range %d at %d", c, cols, i)
		}
	}
	return nil
}
