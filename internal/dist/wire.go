package dist

import (
	"encoding/binary"
	"errors"
	"io"
	"slices"
)

// The wire is a stream of frames: a u8 op, a u32 little-endian body
// length, then the body. A trainer sends a request frame (Join, Next,
// Pull, Push or Bye) and reads one reply frame (OK or Err) before it
// sends the next; session.go documents each op's body.
const (
	opJoin byte = iota + 1
	opNext
	opPull
	opPush
	opBye
	opOK  // reply: the request was answered; the body is its result
	opErr // reply: the request was refused; the body is the reason
)

// opName names the request ops in errors.
var opName = [...]string{opJoin: "Join", opNext: "Next", opPull: "Pull", opPush: "Push", opBye: "Bye"}

const frameHeader = 5 // op and body length

// frameBound is the longest body either end of a run with np parameters
// sends or accepts: room for topk:1's payload, a packed index and a
// float64 a parameter (≤ 12 bytes), and a few words around it. Both ends
// know np before Join, so it bounds every frame in both directions.
func frameBound(np int) int { return 16*np + 64 }

// errFrameBound refuses a frame from its header: nothing is allocated.
var errFrameBound = errors.New("dist: frame body longer than the bound")

// wire is one end of a connection. Every frame is read into and written
// from buf: a body read returns is valid until the next begin.
type wire struct {
	rw    io.ReadWriter
	bound int
	buf   []byte // cap ≥ frameHeader
}

func newWire(rw io.ReadWriter, np int) wire {
	return wire{rw: rw, bound: frameBound(np), buf: make([]byte, frameHeader)}
}

// read reads the next frame and returns its op and body.
func (w *wire) read() (op byte, body []byte, err error) {
	hdr := w.buf[:frameHeader]
	if _, err := io.ReadFull(w.rw, hdr); err != nil {
		return 0, nil, err
	}
	op, n := hdr[0], binary.LittleEndian.Uint32(hdr[1:])
	if uint64(n) > uint64(w.bound) {
		return 0, nil, errFrameBound
	}
	w.buf = slices.Grow(w.buf[:0], int(n))
	body = w.buf[:n]
	_, err = io.ReadFull(w.rw, body)
	return op, body, err
}

// begin starts a frame of op; append its body, then pass it to send.
func (w *wire) begin(op byte) []byte { return append(w.buf[:0], op, 0, 0, 0, 0) }

// send writes a frame begin started, in one Write.
func (w *wire) send(frame []byte) error {
	w.buf = frame[:0]
	putLen(frame, frameHeader)
	_, err := w.rw.Write(frame)
	return err
}

// putLen stores in the four bytes before mark how many bytes follow it.
func putLen(b []byte, mark int) {
	binary.LittleEndian.PutUint32(b[mark-4:mark], uint32(len(b)-mark))
}
