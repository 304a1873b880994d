package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// refDecodeAll is the slice decoder recovery used before the streaming
// scanner, kept as the oracle the scanner is tested against: it decodes
// the longest valid record prefix of b, requiring strictly consecutive
// sequence numbers, and reports the tail exactly as Scan must.
func refDecodeAll(b []byte) ([]Record, Tail) {
	var recs []Record
	off := int64(0)
	for {
		rest := b[off:]
		if len(rest) == 0 {
			return recs, Tail{Offset: off, Clean: true}
		}
		if len(rest) < headerLen {
			return recs, Tail{Offset: off, Reason: "torn header"}
		}
		n := binary.LittleEndian.Uint32(rest[0:])
		if n != payloadLen {
			return recs, Tail{Offset: off, Reason: fmt.Sprintf("bad length %d", n)}
		}
		if len(rest) < headerLen+int(n) {
			return recs, Tail{Offset: off, Reason: "torn payload"}
		}
		p := rest[headerLen : headerLen+int(n)]
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, Tail{Offset: off, Reason: "checksum mismatch"}
		}
		rec, err := decodePayload(p)
		if err != nil {
			return recs, Tail{Offset: off, Reason: err.Error()}
		}
		if len(recs) > 0 && rec.Seq != recs[len(recs)-1].Seq+1 {
			return recs, Tail{Offset: off, Reason: fmt.Sprintf("sequence gap: %d after %d",
				rec.Seq, recs[len(recs)-1].Seq)}
		}
		recs = append(recs, rec)
		off += int64(headerLen + int(n))
	}
}
