//go:build !linux || arm

package storage

import "os"

// startWriteback is a no-op where sync_file_range is not available
// (every OS but Linux, and linux/arm, whose syscall package lacks it):
// the spill's bytes reach the device at WriteManifest's Sync instead.
func startWriteback(*os.File, int64, int64) {}
