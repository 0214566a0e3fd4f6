package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzCheckpointDecode drives decode with arbitrary bytes. The safety
// property is that corrupt input never panics or drives allocation (every
// count is bounded by the bytes left before anything is sized by it); the
// correctness property is that any image decode accepts is canonical —
// re-encoding the decoded state reproduces the input byte for byte, so
// decode accepts exactly encode's range. The committed corpus holds the
// 84-byte wrapped-length image of TestDecodeRejectsHugeClaimedLengths.
func FuzzCheckpointDecode(f *testing.F) {
	for v := 0; v < 3; v++ {
		f.Add(encode(sampleState(v)))
	}
	// Corrupt seeds point the fuzzer at the rejection paths.
	img := encode(sampleState(1))
	f.Add(img[:len(img)-3])
	flip := append([]byte(nil), img...)
	flip[headerLen-6] ^= 0xff // inflate a claimed length
	f.Add(flip)
	f.Add([]byte("TOCK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, data)
		// The CRC stops almost every mutation at the door; resealing the
		// mutated body lets the fuzzer reach the length checks behind it.
		if len(data) >= trailerLen {
			body := data[: len(data)-trailerLen : len(data)-trailerLen]
			checkDecoded(t, binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli)))
		}
	})
}

func checkDecoded(t *testing.T, data []byte) {
	s, err := decode(data)
	if err != nil {
		return
	}
	if got := encode(s); !bytes.Equal(got, data) {
		t.Fatalf("accepted image is not canonical: re-encode differs (%d vs %d bytes)", len(got), len(data))
	}
}
