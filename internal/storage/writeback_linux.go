//go:build linux && !arm

package storage

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE from <linux/fs.h>: start
// writeback of the range's dirty pages and do not wait for it. syscall
// has no constant for it.
const syncFileRangeWrite = 0x2

// startWriteback asks the kernel to start writing [off, off+n) of f back
// to its device. It goes through SyscallConn, not Fd, which would put
// the file into blocking mode. It is a hint: its error is dropped,
// because the Sync that WriteManifest runs before the manifest goes in
// place reports any real one.
func startWriteback(f *os.File, off, n int64) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	})
}
