package wal

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// testLog encodes a valid log of n records with sequences 1..n.
func testLog(n int) []byte {
	b := make([]byte, 0, n*recordLen)
	for s := int64(1); s <= int64(n); s++ {
		b = appendRecord(b, rec(s, s%3 != 0))
	}
	return b
}

// errAfterReader yields its bytes, then fails with err instead of EOF.
type errAfterReader struct {
	b   []byte
	err error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestScanReadErrorIsNotATail: a read that fails with anything but EOF
// fails the scan, wherever it lands — at a record boundary, mid-header,
// mid-payload, past the last record. It is never reported as a torn
// tail, which recovery would truncate; every whole record before it is
// still delivered.
func TestScanReadErrorIsNotATail(t *testing.T) {
	errDisk := errors.New("disk on fire")
	log := testLog(4)
	for _, n := range []int{0, 5, recordLen, recordLen + 30, 2*recordLen + headerLen, len(log)} {
		var got int
		tail, err := scan(&errAfterReader{b: log[:n], err: errDisk}, func(Record) error {
			got++
			return nil
		})
		if !errors.Is(err, errDisk) {
			t.Fatalf("read error after %d bytes: err = %v, tail %+v; want the read error", n, err, tail)
		}
		if got != n/recordLen {
			t.Fatalf("read error after %d bytes: %d records delivered, want %d", n, got, n/recordLen)
		}
	}
}

// TestScanCallbackErrorStops: the callback's error ends the scan at once
// and comes back unchanged.
func TestScanCallbackErrorStops(t *testing.T) {
	errStop := errors.New("replay diverged")
	var calls int
	_, err := scan(bytes.NewReader(testLog(10)), func(r Record) error {
		calls++
		if r.Seq == 3 {
			return errStop
		}
		return nil
	})
	if err != errStop || calls != 3 {
		t.Fatalf("err = %v after %d calls, want the callback's error after 3", err, calls)
	}
}

// TestScanAllocsIndependentOfLength: scanning holds one buffer whatever
// the log's length, so a 50k-record log costs the allocations a
// 1k-record one does.
func TestScanAllocsIndependentOfLength(t *testing.T) {
	allocs := func(log []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := scan(bytes.NewReader(log), func(Record) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(testLog(1000)), allocs(testLog(50000)); small != large {
		t.Fatalf("scan allocations grow with the log: %v for 1k records, %v for 50k", small, large)
	}
}

// BenchmarkScanLog scans a 50k-record log, one shard's share of a
// benchmark fixture, from memory.
func BenchmarkScanLog(b *testing.B) {
	const n = 50000
	log := testLog(n)
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int
		if _, err := scan(bytes.NewReader(log), func(Record) error { got++; return nil }); err != nil || got != n {
			b.Fatalf("scanned %d records (err %v), want %d", got, err, n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

// scanAllocLimit bounds what one scan may allocate, whatever its input:
// the read buffer plus room for a tail reason and the reader wrappers.
const scanAllocLimit = 2 * scanBufSize

// FuzzWALScan throws arbitrary bytes at the scanner — recovery's decoder
// of untrusted disk contents — through readers that return one byte or
// half the request per call. For every input: no panic, the records and
// Tail of the reference slice decoder, and allocation bounded by a
// constant rather than by the input's length. The committed corpus holds
// a valid log, every cut point inside its last record, and one each of
// a header bit flip, a payload bit flip, a bad length, an unknown record
// type and a sequence gap.
func FuzzWALScan(f *testing.F) {
	f.Add(testLog(3))
	f.Fuzz(func(t *testing.T, b []byte) {
		wantRecs, wantTail := refDecodeAll(b)
		readers := map[string]io.Reader{
			"whole":    bytes.NewReader(b),
			"one-byte": iotest.OneByteReader(bytes.NewReader(b)),
			"half":     iotest.HalfReader(bytes.NewReader(b)),
		}
		for name, r := range readers {
			var got []Record
			tail, err := scan(r, func(r Record) error {
				got = append(got, r)
				return nil
			})
			if err != nil {
				t.Fatalf("%s: in-memory scan failed: %v", name, err)
			}
			if tail != wantTail {
				t.Fatalf("%s: tail %+v, reference %+v", name, tail, wantTail)
			}
			if len(got) != len(wantRecs) {
				t.Fatalf("%s: %d records, reference %d", name, len(got), len(wantRecs))
			}
			for i := range got {
				// Compare encodings: float fields may hold NaN bits.
				if !bytes.Equal(appendRecord(nil, got[i]), appendRecord(nil, wantRecs[i])) {
					t.Fatalf("%s: record %d: %+v, reference %+v", name, i, got[i], wantRecs[i])
				}
			}
		}

		r := iotest.OneByteReader(bytes.NewReader(b))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		scan(r, func(Record) error { return nil }) //nolint:errcheck // an in-memory read cannot fail
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > scanAllocLimit {
			t.Fatalf("scan of %d bytes allocated %d bytes (limit %d)", len(b), grew, scanAllocLimit)
		}
	})
}
