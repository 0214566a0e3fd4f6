// Package core implements tuple-oriented compression (TOC), the primary
// contribution of "Tuple-oriented Compression for Large-scale Mini-batch
// Stochastic Gradient Descent" (Li et al., SIGMOD 2019), together with the
// paper's compressed matrix-operation execution techniques.
//
// TOC compresses a mini-batch (a small dense matrix) in three layers:
//
//  1. Sparse encoding (§3): zeros are dropped and every non-zero value is
//     prefixed with its column index, forming column-index:value pairs.
//  2. Logical encoding (§3.1): an LZW-inspired prefix-tree encoder replaces
//     repeated pair sequences across tuples with tree-node indexes
//     (Algorithm 1). Only the encoded table D and the tree's first layer I
//     are kept; the full tree is rebuilt on demand (Algorithm 2).
//  3. Physical encoding (§3.2): bit packing and value indexing shrink the
//     integer arrays and the float dictionary.
//
// Matrix operations execute directly on (I, D) without decompression:
// sparse-safe element-wise ops (Algorithm 3), right multiplications A·v and
// A·M (Algorithms 4 and 7), and left multiplications v·A and M·A
// (Algorithms 5 and 8). Sparse-unsafe ops decode first (Algorithm 6).
package core

import "toc/internal/matrix"

// Pair is a column-index:value pair, the compression unit of TOC (§3).
// Unlike LZW's 8-bit units, encoding whole pairs preserves column
// boundaries in the underlying tabular data (Table 3).
type Pair struct {
	Col uint32
	Val float64
}

// SparseRow is the sparse encoding of one tuple: its non-zero values, each
// prefixed with its column index, in ascending column order.
type SparseRow []Pair

// SparseEncode converts a dense matrix into the sparse encoded table B of
// §3: row R=[1.1, 2, 3, 0] becomes [1:1.1, 2:2, 3:3] (columns are 1-based
// in the paper's figures; here they are 0-based indexes).
func SparseEncode(d *matrix.Dense) []SparseRow {
	b := make([]SparseRow, d.Rows())
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		var sr SparseRow
		for j, v := range row {
			if v != 0 {
				sr = append(sr, Pair{Col: uint32(j), Val: v})
			}
		}
		b[i] = sr
	}
	return b
}
