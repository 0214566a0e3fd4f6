package core

import (
	"bytes"
	"reflect"
	"testing"

	"toc/internal/matrix"
)

// figure3Input is the original table A of the paper's Figure 3 running
// example. The paper's column indexes are 1-based; this implementation is
// 0-based, so every column index below is the paper's minus one.
func figure3Input() *matrix.Dense {
	return matrix.NewDenseFromRows([][]float64{
		{1.1, 2, 3, 1.4},
		{1.1, 2, 3, 0},
		{0, 1.1, 3, 1.4},
		{1.1, 2, 0, 0},
	})
}

func TestFigure3SparseEncoding(t *testing.T) {
	b := SparseEncode(figure3Input())
	want := []SparseRow{
		{{0, 1.1}, {1, 2}, {2, 3}, {3, 1.4}},
		{{0, 1.1}, {1, 2}, {2, 3}},
		{{1, 1.1}, {2, 3}, {3, 1.4}},
		{{0, 1.1}, {1, 2}},
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("sparse encoded table = %v, want %v", b, want)
	}
}

// TestFigure3RunningExample checks the exact logical encoding outputs of
// Figure 3: the first layer I (nodes 1..5) and the encoded table D.
func TestFigure3RunningExample(t *testing.T) {
	I, D := PrefixTreeEncode(SparseEncode(figure3Input()))

	wantI := []Pair{{0, 1.1}, {1, 2}, {2, 3}, {3, 1.4}, {1, 1.1}}
	if !reflect.DeepEqual(I, wantI) {
		t.Errorf("I = %v, want %v", I, wantI)
	}

	wantD := [][]uint32{{1, 2, 3, 4}, {6, 3}, {5, 8}, {6}}
	if !reflect.DeepEqual(D, wantD) {
		t.Errorf("D = %v, want %v", D, wantD)
	}
}

// TraceStep records one iteration of the phase-II while loop of Algorithm
// 1, in the shape of the paper's Table 2.
type TraceStep struct {
	Tuple     int    // which tuple of B this step processed
	I         int    // matching start position within the tuple
	MatchNode uint32 // longest-match tree node index (column "LMFromTree")
	Appended  uint32 // index appended to D[t] (column "App")
	AddedNode uint32 // newly added node index, 0 if AddNode was NOT called
	AddedSeq  []Pair // sequence represented by the added node (nil if none)
}

// prefixTreeEncodeTrace derives the step-by-step trace of phase II from
// the encoder's output alone: each code of D is one iteration, the match
// is the code's node, its position advances by the length of the node's
// sequence in the decode tree (Algorithm 2's full one, in the paper's
// numbering), and every iteration but a tuple's last added the next
// sequence number — the match extended by the pair that follows it in the
// tuple.
func prefixTreeEncodeTrace(b []SparseRow) (trace []TraceStep) {
	I, D := PrefixTreeEncode(b)
	tree := oracleBuild(I, flattenD(D))
	next := uint32(len(I)) + 1
	for ti, codes := range D {
		pos := 0
		for k, n := range codes {
			seq := tree.seq(n)
			step := TraceStep{Tuple: ti, I: pos, MatchNode: n, Appended: n}
			pos += len(seq)
			if k+1 < len(codes) {
				step.AddedNode = next
				step.AddedSeq = append(seq, b[ti][pos])
				next++
			}
			trace = append(trace, step)
		}
	}
	return trace
}

// TestAlgorithm1TraceTable2 reproduces the paper's Table 2: every
// iteration of the phase-II while loop on the Figure 3 example.
func TestAlgorithm1TraceTable2(t *testing.T) {
	trace := prefixTreeEncodeTrace(SparseEncode(figure3Input()))

	type row struct {
		tuple, i int
		match    uint32
		app      uint32
		added    uint32
		addedSeq []Pair
	}
	want := []row{
		// R1
		{0, 0, 1, 1, 6, []Pair{{0, 1.1}, {1, 2}}},
		{0, 1, 2, 2, 7, []Pair{{1, 2}, {2, 3}}},
		{0, 2, 3, 3, 8, []Pair{{2, 3}, {3, 1.4}}},
		{0, 3, 4, 4, 0, nil}, // AddNode NOT called
		// R2
		{1, 0, 6, 6, 9, []Pair{{0, 1.1}, {1, 2}, {2, 3}}},
		{1, 2, 3, 3, 0, nil},
		// R3
		{2, 0, 5, 5, 10, []Pair{{1, 1.1}, {2, 3}}},
		{2, 1, 8, 8, 0, nil},
		// R4
		{3, 0, 6, 6, 0, nil},
	}
	if len(trace) != len(want) {
		t.Fatalf("trace has %d steps, want %d", len(trace), len(want))
	}
	for k, w := range want {
		g := trace[k]
		if g.Tuple != w.tuple || g.I != w.i || g.MatchNode != w.match ||
			g.Appended != w.app || g.AddedNode != w.added ||
			!reflect.DeepEqual(g.AddedSeq, w.addedSeq) {
			t.Errorf("step %d = %+v, want %+v", k, g, w)
		}
	}
}

// TestBuildPrefixTreeTable4 reproduces the paper's Table 4: the decode
// tree C' rebuilt from I and D for the running example — Algorithm 2 as
// written, through the oracle builder — and the tree a batch builds from
// it: the same nodes with 7, 9 and 10, which D never references, left
// out and 8 numbered 7.
func TestBuildPrefixTreeTable4(t *testing.T) {
	I, D := PrefixTreeEncode(SparseEncode(figure3Input()))
	full := oracleBuild(I, flattenD(D))

	if len(full.Key) != 11 {
		t.Fatalf("C' has %d nodes, want 11 (root + 10)", len(full.Key))
	}
	wantKey := []Pair{
		{},                                           // root, unused
		{0, 1.1}, {1, 2}, {2, 3}, {3, 1.4}, {1, 1.1}, // first layer
		{1, 2}, {2, 3}, {3, 1.4}, {2, 3}, {2, 3}, // rebuilt phase-II nodes
	}
	wantParent := []uint32{0, 0, 0, 0, 0, 0, 1, 2, 3, 6, 5}
	for i := 1; i < len(full.Key); i++ {
		if full.Key[i] != wantKey[i] {
			t.Errorf("key of node %d = %v, want %v", i, full.Key[i], wantKey[i])
		}
		if full.Parent[i] != wantParent[i] {
			t.Errorf("Parent[%d] = %d, want %d", i, full.Parent[i], wantParent[i])
		}
	}

	tree := Compress(figure3Input()).buildTree()
	paper := []uint32{0, 1, 2, 3, 4, 5, 6, 8} // live id → Table 4's number
	liveParent := []uint32{0, 0, 0, 0, 0, 0, 1, 3}
	if tree.Len() != len(paper) {
		t.Fatalf("the batch's C' has %d nodes, want %d (root + first layer + nodes 6 and 8)", tree.Len(), len(paper))
	}
	for i := 1; i < tree.Len(); i++ {
		if got := I[tree.KeyIdx[i]-1]; got != wantKey[paper[i]] || tree.Parent[i] != liveParent[i] {
			t.Errorf("live node %d = key %v parent %d, want Table 4's node %d: key %v parent %d",
				i, got, tree.Parent[i], paper[i], wantKey[paper[i]], liveParent[i])
		}
	}
}

// TestDecodeTreeSequences checks §3.1.1's sequence semantics on the
// running example: node 9 represents [1:1.1, 2:2, 3:3] (paper indexes).
// In a batch's tree the two deep nodes D references keep their sequences
// under their live numbers.
func TestDecodeTreeSequences(t *testing.T) {
	I, D := PrefixTreeEncode(SparseEncode(figure3Input()))
	full := oracleBuild(I, flattenD(D))

	want := map[uint32][]Pair{
		1:  {{0, 1.1}},
		5:  {{1, 1.1}},
		6:  {{0, 1.1}, {1, 2}},
		9:  {{0, 1.1}, {1, 2}, {2, 3}},
		10: {{1, 1.1}, {2, 3}},
	}
	for idx, seq := range want {
		if got := full.seq(idx); !reflect.DeepEqual(got, seq) {
			t.Errorf("Seq(%d) = %v, want %v", idx, got, seq)
		}
	}

	tree := Compress(figure3Input()).buildTree()
	for idx, seq := range map[uint32][]Pair{
		1: {{0, 1.1}},
		5: {{1, 1.1}},
		6: {{0, 1.1}, {1, 2}},
		7: {{2, 3}, {3, 1.4}}, // Table 4's node 8
	} {
		if got := tree.Seq(I, idx); !reflect.DeepEqual(got, seq) {
			t.Errorf("live Seq(%d) = %v, want %v", idx, got, seq)
		}
	}
}

// TestFigure3PhysicalSections checks the Figure 3 physical encoding: the
// concatenated tree node indexes, the tuple start indexes, the column
// indexes of I, and the value dictionary.
func TestFigure3PhysicalSections(t *testing.T) {
	b := Compress(figure3Input())

	// The batch keeps D renumbered onto the live nodes (8 → 7), 16 bits a
	// code, and the image holds the same D′ with the creation bitmap of
	// the two live nodes created, at positions 0 and 2; the inverse map
	// gives back Figure 3's D.
	if got := paperCodes(b); !reflect.DeepEqual(got, []uint32{1, 2, 3, 4, 6, 3, 5, 8, 6}) {
		t.Errorf("concatenated node indexes = %v", got)
	}
	if got := b.d.narrow; !reflect.DeepEqual(got, []uint16{1, 2, 3, 4, 6, 3, 5, 7, 6}) {
		t.Errorf("resident node indexes = %v", got)
	}
	paper, err := imageD(b.Serialize())
	if err != nil || !reflect.DeepEqual(paper.Nodes, []uint32{1, 2, 3, 4, 6, 3, 5, 8, 6}) {
		t.Errorf("the image's D maps back to %v (%v)", paper.Nodes, err)
	}
	if want := []byte{1, 2, 3, 4, 6, 3, 5, 7, 6, 0b101, 0}; !bytes.Contains(b.Serialize(), want) {
		t.Errorf("the image does not hold D′ and its bitmap %v", want)
	}
	// Figure 3 shows starts 0,4,6,8; our layout appends the total (9) as a
	// sentinel in place of a separate element count.
	if got := b.d.starts; !reflect.DeepEqual(got, []uint32{0, 4, 6, 8, 9}) {
		t.Errorf("tuple start indexes = %v", got)
	}
	wantI := []Pair{{0, 1.1}, {1, 2}, {2, 3}, {3, 1.4}, {1, 1.1}}
	if got := b.i.pairs(); !reflect.DeepEqual(got, wantI) {
		t.Errorf("I = %v, want %v", got, wantI)
	}
}

// TestFigure3OpsMatchDense runs every compressed kernel on the running
// example and compares against dense execution.
func TestFigure3OpsMatchDense(t *testing.T) {
	a := figure3Input()
	b := Compress(a)

	if !b.Decode().Equal(a) {
		t.Fatal("Decode != original")
	}

	v := []float64{1, -2, 0.5, 3}
	checkVec(t, "A·v", b.MulVec(v), a.MulVec(v))

	u := []float64{0.5, 1, -1, 2}
	checkVec(t, "v·A", b.VecMul(u), a.VecMul(u))

	m := matrix.NewDenseFromRows([][]float64{{1, 2}, {0, 1}, {3, 0}, {1, 1}})
	if got, want := b.MulMat(m), a.MulMat(m); !got.EqualApprox(want, 1e-12) {
		t.Errorf("A·M = %v, want %v", got, want)
	}

	m2 := matrix.NewDenseFromRows([][]float64{{1, 0, 2, -1}, {0.5, 1, 0, 0}})
	if got, want := b.MatMul(m2), a.MatMul(m2); !got.EqualApprox(want, 1e-12) {
		t.Errorf("M·A = %v, want %v", got, want)
	}

	if got, want := b.Scale(2.5).Decode(), a.Scale(2.5); !got.EqualApprox(want, 1e-12) {
		t.Errorf("A.*c = %v, want %v", got, want)
	}

	if got, want := b.AddScalar(1.5), a.AddScalar(1.5); !got.EqualApprox(want, 1e-12) {
		t.Errorf("A.+c = %v, want %v", got, want)
	}
}

func checkVec(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		diff := got[i] - want[i]
		if diff < -1e-12 || diff > 1e-12 {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
			return
		}
	}
}

// TestSelfReferencingCode exercises the subtle Algorithm-2 case where a
// tuple's code references the node created by its own previous element.
// Within a matrix row column indexes strictly increase, so a (col,val)
// pair never repeats inside one tuple — but PrefixTreeEncode itself is
// more general (it accepts any tuple of pairs, like LZW accepts any
// string), and the replay in treeArena.build must handle the
// self-referencing code that repeated pairs produce: [a,a,a] encodes to
// [1,2] where node 2 = [a,a] is created mid-tuple by element 0 and then
// referenced by element 1.
func TestSelfReferencingCode(t *testing.T) {
	a := Pair{Col: 0, Val: 5}
	I, D := PrefixTreeEncode([]SparseRow{{a, a, a}})
	if !reflect.DeepEqual(I, []Pair{a}) {
		t.Fatalf("I = %v, want [%v]", I, a)
	}
	if !reflect.DeepEqual(D, [][]uint32{{1, 2}}) {
		t.Fatalf("D = %v, want [[1 2]]", D)
	}
	b := newLogicalCase(t, "[a,a,a]", 1, 1, SparseLogical, I, D).b
	tree := b.buildTree()
	if tree.Len() != 3 {
		t.Fatalf("tree has %d nodes, want 3", tree.Len())
	}
	if tree.Parent[2] != 1 || tree.KeyIdx[2] != 1 {
		t.Fatalf("node 2 = key index %d parent %d, want key index 1 (%v) parent 1", tree.KeyIdx[2], tree.Parent[2], a)
	}
	if got := tree.Seq(I, 2); !reflect.DeepEqual(got, []Pair{a, a}) {
		t.Fatalf("Seq(2) = %v, want [a a]", got)
	}
}
