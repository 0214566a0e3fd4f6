package testutil

// RefArray appends vals to dst as a bit-packed array, one byte at a time:
// u32 count, u8 width, then each value in width little-endian bytes. It
// is the reference the one writer of packed integers
// (bitpack.AppendArray) is checked against, and the packer of the
// oracles that check core's image and top-k's frame, which must not
// share the code they check.
func RefArray(dst []byte, vals []uint32, width int) []byte {
	n := len(vals)
	dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24), byte(width))
	for _, v := range vals {
		for k := 0; k < width; k++ {
			dst = append(dst, byte(v>>(8*k)))
		}
	}
	return dst
}
