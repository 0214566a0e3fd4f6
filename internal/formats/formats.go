// Package formats provides the compared mini-batch encoding methods of the
// paper's §5 evaluation behind one interface: the DEN baseline, the
// light-weight matrix compression schemes CSR, CVI (CSR-VI), DVI and CLA,
// the general compression schemes Snappy and Gzip, and TOC itself
// (including its ablation variants).
//
// Every scheme multiplies through one seam: a batch's NewKernelPlan, whose
// four Into kernels are the only way to run a Table 1 multiplication on
// it. Light-weight schemes and TOC execute them directly on the encoded
// data; the general schemes' plans decompress the whole mini-batch before
// every kernel call — exactly the decompression overhead the paper
// measures.
package formats

import (
	"fmt"
	"sort"

	"toc/internal/matrix"
)

// CompressedMatrix is the contract every mini-batch encoding implements.
type CompressedMatrix interface {
	// Rows returns the number of tuples in the mini-batch.
	Rows() int
	// Cols returns the number of columns of the original matrix.
	Cols() int
	// CompressedSize returns the encoded size in bytes — exactly
	// len(Serialize()) — the quantity the paper's compression ratios and
	// memory budgets are based on.
	CompressedSize() int
	// Serialize returns the wire image of the encoded mini-batch; the
	// scheme's registered Decoder inverts it.
	Serialize() []byte
	// Decode losslessly reconstructs the original dense mini-batch.
	Decode() *matrix.Dense
	// Scale computes the sparse-safe element-wise A.*c.
	Scale(c float64) CompressedMatrix
	// NewKernelPlan returns a plan holding the per-batch decode state
	// (TOC's decode tree C'; none for the other schemes, whose plan is
	// the batch itself) so the 2-3 kernel calls a gradient step makes on
	// one mini-batch share a single build instead of paying the per-op
	// rebuild. The plan is tied to this batch and, until it is released,
	// safe for concurrent use.
	NewKernelPlan() KernelPlan
}

// ParallelOps is CompressedMatrix under the name it had while planning
// was optional. It exists only because benchmark/decorators.go asserts to
// and embeds that name and benchmark/ is frozen for code PRs; the next
// benchmark PR renames its uses and deletes this line.
type ParallelOps = CompressedMatrix

// KernelPlan is the per-batch kernel plan of NewKernelPlan: the one way
// to run a Table 1 multiplication on an encoded batch. Every kernel takes
// a worker count — TOC's and CSR's A·M and M·A split their work (TOC:
// panel runs; CSR: rows) across that many goroutines; every other
// kernel, every scheme's A·v and v·A included, accepts it for interface
// symmetry and runs on the caller's goroutine (README has the table) —
// and a destination: nil allocates the result, a non-nil dst must have
// the result's exact shape and is written and returned. The contract is
// strict: for any dst and any workers value the result is bitwise the
// one a nil dst at one worker gets, so callers may thread a plan through
// a step's forward and backward multiplications, pick any worker count
// and reuse their gradient buffers across steps without ever changing a
// training trajectory.
//
// Lifecycle: whoever called NewKernelPlan may call Release once the
// step's last kernel has returned. That hands the plan's memory back for
// the next plan to reuse — what makes a build-use-release loop
// allocation-free — and ends the plan's life: using a released plan is a
// bug (a TOC plan panics until the memory is reused, and after that it is
// someone else's plan). Releasing is optional; a plan that is dropped is
// garbage collected, and only TOC's has memory to recycle. Between
// NewKernelPlan and Release a plan is read-only — all per-call state is
// scratch owned by the call — so any number of goroutines may run kernels
// on it at once; Release itself must not race with them.
type KernelPlan interface {
	// MulVecInto computes A·v into dst (length rows, fully overwritten).
	MulVecInto(dst, v []float64, workers int) []float64
	// MulMatInto computes A·M into dst (rows × m.Cols(), zeroed first).
	MulMatInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense
	// VecMulInto computes v·A into dst (length cols, zeroed first).
	VecMulInto(dst, v []float64, workers int) []float64
	// MatMulInto computes M·A into dst (m.Rows() × cols, zeroed first).
	MatMulInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense
	// Release ends the plan's life and recycles its memory; a second call
	// in a row is a no-op.
	Release()
}

// KernelPlanInto is KernelPlan under the name it had while the Into
// methods were an optional extension. It exists only because
// benchmark/decorators.go asserts to and embeds that name and benchmark/
// is frozen for code PRs; the next benchmark PR renames its uses and
// deletes this line.
type KernelPlanInto = KernelPlan

// Encoder compresses a dense mini-batch with one scheme. The result
// keeps no reference to its input, which is often a view of a whole
// dataset's rows (data.Dataset.Batch): the caller may overwrite or drop
// the input once Encoder returns.
type Encoder func(*matrix.Dense) CompressedMatrix

// Decoder reconstructs a compressed mini-batch from its wire image.
type Decoder func([]byte) (CompressedMatrix, error)

// Codec pairs a scheme's encoder with its wire decoder.
type Codec struct {
	Encode Encoder
	Decode Decoder
}

var registry = map[string]Codec{}

// Register adds a codec under the given method name. It is called from
// init functions of this package and of scheme packages (e.g. CLA, TOC).
func Register(name string, enc Encoder, dec Decoder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("formats: duplicate method %q", name))
	}
	registry[name] = Codec{Encode: enc, Decode: dec}
}

// Get returns the encoder registered under name.
func Get(name string) (Encoder, bool) {
	c, ok := registry[name]
	return c.Encode, ok
}

// GetCodec returns the full codec registered under name.
func GetCodec(name string) (Codec, bool) {
	c, ok := registry[name]
	return c, ok
}

// MustGetCodec returns the codec registered under name, panicking if
// missing.
func MustGetCodec(name string) Codec {
	c, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("formats: unknown method %q", name))
	}
	return c
}

// Names returns all registered method names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PaperMethods lists the seven compared methods plus TOC in the order the
// paper's figures use.
func PaperMethods() []string {
	return []string{"DEN", "CSR", "CVI", "DVI", "CLA", "Snappy", "Gzip", "TOC"}
}

// csrParts extracts CSR arrays from a dense matrix; shared by CSR and CVI.
func csrParts(d *matrix.Dense) (starts []uint32, cols []uint32, vals []float64) {
	rows := d.Rows()
	starts = make([]uint32, rows+1)
	nnz := d.NNZ()
	cols = make([]uint32, 0, nnz)
	vals = make([]float64, 0, nnz)
	for i := 0; i < rows; i++ {
		starts[i] = uint32(len(cols))
		for j, v := range d.Row(i) {
			if v != 0 {
				cols = append(cols, uint32(j))
				vals = append(vals, v)
			}
		}
	}
	starts[rows] = uint32(len(cols))
	return starts, cols, vals
}
