package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"toc/internal/bitpack"
	"toc/internal/testutil"
)

// A frame that claims a body over the bound is refused from its header:
// the receive path allocates nothing for it.
func TestOversizeFrameAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are pinned by the non-race suite")
	}
	const np = 1000
	hdr := binary.LittleEndian.AppendUint32([]byte{opPush}, uint32(frameBound(np)+1))
	var in bytes.Reader
	w := newWire(struct {
		io.Reader
		io.Writer
	}{&in, io.Discard}, np)
	allocs := testing.AllocsPerRun(100, func() {
		in.Reset(hdr)
		if _, _, err := w.read(); !errors.Is(err, errFrameBound) {
			t.Fatalf("read = %v, want %v", err, errFrameBound)
		}
	})
	if allocs != 0 {
		t.Errorf("an oversize frame allocated %v times, want 0", allocs)
	}
}

// A trainer refuses a reply it cannot trust with an error, not a panic: a
// batch outside the schedule, which MemorySource.Batch would index out of
// range, or a Join, Next or Pull reply with bytes left over. The server
// is a fake that answers each request with the next scripted body.
func TestTrainerRefusesUntrustedReplies(t *testing.T) {
	d, src := testSource(t, "census", 200)
	n := src.NumBatches()
	np := newSnapshotModel(t, "lr", d, 3).NumParams()
	join := func(extra ...byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 0) // staleness bound
		b = binary.LittleEndian.AppendUint64(b, 0)    // version
		return append(bitpack.AppendF64s(b, make([]float64, np)), extra...)
	}
	next := func(pos int64, batch uint32, extra ...byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(pos))
		return append(binary.LittleEndian.AppendUint32(b, batch), extra...)
	}
	pull := func(extra ...byte) []byte {
		payload := (&Dense{}).EncodeGrad(make([]float64, np), nil)
		b := binary.LittleEndian.AppendUint64(nil, 0) // version
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		return append(append(b, payload...), extra...)
	}
	for _, row := range []struct {
		name    string
		replies [][]byte // OK bodies, answering the trainer's requests in turn
		want    string
	}{
		{"a batch past the schedule", [][]byte{join(), next(0, uint32(n))}, fmt.Sprintf("batch %d of %d", n, n)},
		{"a Join reply with trailing bytes", [][]byte{join(0)}, "trailing"},
		{"a Next reply with trailing bytes", [][]byte{join(), next(0, 0, 0)}, "trailing"},
		// Position 5 trails the join image by more than the bound: a pull.
		{"a Pull reply with trailing bytes", [][]byte{join(), next(5, 0), pull(0)}, "trailing"},
	} {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			w := newWire(server, np)
			for _, body := range row.replies {
				if _, _, err := w.read(); err != nil {
					return
				}
				if err := w.send(append(w.begin(opOK), body...)); err != nil {
					return
				}
			}
		}()
		err := NewTrainer(client, newSnapshotModel(t, "lr", d, 3), src, TrainerConfig{}).Run()
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: Run = %v, want an error containing %q", row.name, err, row.want)
		}
	}
}

// The frame bound fits the largest payload any codec makes: topk:1 ships
// a packed index beside every coordinate's float64, more than the dense
// image, in both directions for a whole run.
func TestTopKOneRunsOverTheWire(t *testing.T) {
	d, src := testSource(t, "census", 200)
	codec, err := ParseCodec("topk:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Epochs: 3, NumBatches: src.NumBatches(), LR: 0.2, Codec: codec,
	}, newSnapshotModel(t, "lr", d, 3))
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	// The only trainer: if it dies, nothing finishes the schedule.
	if err := NewTrainer(client, newSnapshotModel(t, "lr", d, 3), src, TrainerConfig{Codec: codec.Clone()}).Run(); err != nil {
		srv.Halt()
		t.Fatalf("trainer: %v", err)
	}
	if _, err := srv.Wait(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if want := int64(3 * src.NumBatches()); st.Updates != want {
		t.Errorf("%d updates, want %d", st.Updates, want)
	}
	if st.UpBytes <= st.DenseUpBytes || st.Pulls == 0 {
		t.Errorf("%d bytes up against dense's %d, %d pulls: the run never outgrew a dense-sized frame", st.UpBytes, st.DenseUpBytes, st.Pulls)
	}
}
