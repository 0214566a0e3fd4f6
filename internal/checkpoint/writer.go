package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// DefaultKeep is how many checkpoint files a Writer retains; older ones
// are pruned after each successful save. Any retained checkpoint
// resumes the same trajectory, so keeping a few is purely insurance
// against losing the newest one to a crash mid-rename.
const DefaultKeep = 3

// Writer owns one checkpoint directory and takes the serialize-and-
// write work off the training hot path: SaveAsync hands the snapshot to
// a background goroutine and returns immediately, coalescing — if a new
// snapshot arrives while the previous one is still being written, the
// unwritten one is replaced, never queued. Dropping a snapshot is safe
// because any persisted checkpoint resumes the exact trajectory; only
// the resume point moves.
//
// Save is the synchronous variant (the engines use it for the final
// checkpoint on Halt, where the process is about to exit and the write
// must not race it). SetSynchronous makes SaveAsync block too, which
// the identity tests use to pin the set of files a run produces.
type Writer struct {
	dir string

	// saveMu serializes Save's write-then-prune: the background writer
	// and a caller's synchronous Save (the final checkpoint of a run) may
	// overlap, and two concurrent prunes would race to remove the same
	// oldest file.
	saveMu sync.Mutex

	mu sync.Mutex
	//toc:guardedby mu
	keep int
	//toc:guardedby mu
	pending *State // newest unwritten snapshot (coalesced)
	//toc:guardedby mu
	err error // first background write failure
	//toc:guardedby mu
	syncMode bool
	kick     chan struct{}
	done     chan struct{}
	idle     *sync.Cond // signaled when pending drains
	//toc:guardedby mu
	closed bool
}

// NewWriter creates (if needed) the checkpoint directory, removes the
// temp files crashed saves left in it, and starts the background writer.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	if err := RemoveTemps(dir, "ckpt-*.toc"); err != nil {
		return nil, fmt.Errorf("checkpoint: remove temp files: %w", err)
	}
	w := &Writer{
		dir:  dir,
		keep: DefaultKeep,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	w.idle = sync.NewCond(&w.mu)
	go w.loop()
	return w, nil
}

// SetKeep sets how many checkpoint files are retained (minimum 1).
func (w *Writer) SetKeep(n int) {
	if n < 1 {
		n = 1
	}
	w.mu.Lock()
	w.keep = n
	w.mu.Unlock()
}

// SetSynchronous makes SaveAsync write before returning — deterministic
// checkpoint cadence for tests and debugging, at hot-path cost.
func (w *Writer) SetSynchronous(on bool) {
	w.mu.Lock()
	w.syncMode = on
	w.mu.Unlock()
}

// Save writes one checkpoint synchronously (atomic rename) and prunes
// old files past the retention count.
func (w *Writer) Save(s *State) error {
	w.saveMu.Lock()
	defer w.saveMu.Unlock()
	if err := Save(filepath.Join(w.dir, FileName(s.Step())), s); err != nil {
		return err
	}
	return w.prune()
}

// SaveAsync hands the snapshot to the background writer and returns.
// The caller must not mutate s afterwards (the engines always pass a
// freshly-copied State). If a previous snapshot is still unwritten it
// is replaced. A background write error is reported by the next Flush
// or Close.
func (w *Writer) SaveAsync(s *State) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if w.syncMode {
		w.mu.Unlock()
		w.recordErr(w.Save(s))
		return
	}
	w.pending = s
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default: // writer already has a wakeup queued
	}
}

// Flush blocks until no snapshot is pending or in flight, then returns
// (and clears) the first background write error.
func (w *Writer) Flush() error {
	w.mu.Lock()
	for w.pending != nil {
		w.idle.Wait()
	}
	err := w.err
	w.err = nil
	w.mu.Unlock()
	return err
}

// Close flushes and stops the background writer. The Writer is unusable
// afterwards.
func (w *Writer) Close() error {
	err := w.Flush()
	w.mu.Lock()
	alreadyClosed := w.closed
	w.closed = true
	w.mu.Unlock()
	if !alreadyClosed {
		close(w.done)
	}
	return err
}

func (w *Writer) recordErr(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// loop is the background writer: take the newest pending snapshot,
// write it, repeat. pending is cleared only after the write completes,
// so Flush's "pending == nil" means durably on disk.
func (w *Writer) loop() {
	for {
		select {
		case <-w.done:
			return
		case <-w.kick:
		}
		for {
			w.mu.Lock()
			s := w.pending
			w.mu.Unlock()
			if s == nil {
				break
			}
			err := w.Save(s)
			w.mu.Lock()
			w.recordErrLocked(err)
			// A newer snapshot may have replaced s mid-write; only
			// clear the slot if it still holds what was written.
			if w.pending == s {
				w.pending = nil
				w.idle.Broadcast()
			}
			w.mu.Unlock()
		}
	}
}

// recordErrLocked keeps the first background failure. Must be called
// with w.mu held.
//
//toc:locked mu
func (w *Writer) recordErrLocked(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// prune removes the oldest checkpoint files beyond the retention count.
func (w *Writer) prune() error {
	w.mu.Lock()
	keep := w.keep
	w.mu.Unlock()
	names, err := files(w.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: prune scan: %w", err)
	}
	if len(names) <= keep {
		return nil
	}
	for _, n := range names[:len(names)-keep] {
		if err := os.Remove(filepath.Join(w.dir, n)); err != nil {
			return fmt.Errorf("checkpoint: prune: %w", err)
		}
	}
	return nil
}
