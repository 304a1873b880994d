package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/online"
)

// scanBytes collects every record Scan hands its callback from b.
func scanBytes(t testing.TB, b []byte) ([]Record, Tail) {
	t.Helper()
	var recs []Record
	tail, err := scan(bytes.NewReader(b), func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("scan of an in-memory log: %v", err)
	}
	return recs, tail
}

// scanLog collects every record ScanFile hands its callback from path.
func scanLog(path string) ([]Record, Tail, error) {
	var recs []Record
	tail, err := ScanFile(path, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, tail, err
}

func rec(seq int64, accepted bool) Record {
	return Record{
		Seq: seq,
		Job: job.Job{ID: int(seq), Release: float64(seq) * 1.5, Proc: 2.25, Deadline: float64(seq)*1.5 + 10},
		Decision: online.Decision{
			JobID: int(seq), Accepted: accepted, Machine: int(seq) % 3, Start: float64(seq) * 1.5,
		},
	}
}

// TestRoundTripBitExact pins the encoding: floats survive as raw bits,
// including values JSON would mangle.
func TestRoundTripBitExact(t *testing.T) {
	nasty := Record{
		Seq: 1,
		Job: job.Job{ID: -7, Release: 0x1.fffffffffffffp-3, Proc: math.SmallestNonzeroFloat64, Deadline: 1e308},
		Decision: online.Decision{
			JobID: -7, Accepted: true, Machine: 2, Start: 0x1.0000000000001p+10,
		},
	}
	var b []byte
	b = appendRecord(b, nasty)
	b = appendRecord(b, rec(2, false))
	recs, tail := scanBytes(t, b)
	if !tail.Clean || len(recs) != 2 {
		t.Fatalf("decode: %d records, tail %+v", len(recs), tail)
	}
	if recs[0] != nasty {
		t.Fatalf("round trip mangled record: %+v != %+v", recs[0], nasty)
	}
	if recs[1] != rec(2, false) {
		t.Fatalf("round trip mangled record 2")
	}
}

// TestWriterAppendCommitRead drives the writer through batches and
// re-reads the file.
func TestWriterAppendCommitRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for batch := 0; batch < 5; batch++ {
		for i := 0; i < 3; i++ {
			r := rec(w.NextSeq(), i%2 == 0)
			seq, err := w.Append(r.Job, r.Decision)
			if err != nil {
				t.Fatal(err)
			}
			r.Seq = seq
			want = append(want, r)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if w.SyncedBytes() != int64(len(want)*recordLen) {
		t.Fatalf("synced %d bytes, want %d", w.SyncedBytes(), len(want)*recordLen)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, tail, err := scanLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Clean {
		t.Fatalf("tail not clean: %+v", tail)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestUncommittedRecordsAreNotDurable pins the core contract: buffered
// but uncommitted records never reach the file.
func TestUncommittedRecordsAreNotDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := rec(1, true)
	if _, err := w.Append(r1.Job, r1.Decision); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	r2 := rec(2, true)
	if _, err := w.Append(r2.Job, r2.Decision); err != nil {
		t.Fatal(err)
	}
	w.Close() // no Commit: record 2 must be dropped
	got, tail, err := scanLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Clean || len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("got %d records (tail %+v), want exactly record 1", len(got), tail)
	}
}

// TestTornTailVariants cuts and corrupts a valid log at every byte
// position inside the final record: the reader must always return the
// intact prefix and a non-clean tail at the right offset.
func TestTornTailVariants(t *testing.T) {
	var b []byte
	for s := int64(1); s <= 4; s++ {
		b = appendRecord(b, rec(s, s%2 == 0))
	}
	intact := int64(3 * recordLen)
	for cut := intact; cut < int64(len(b)); cut++ {
		recs, tail := scanBytes(t, b[:cut])
		if len(recs) != 3 {
			t.Fatalf("cut %d: %d records, want 3", cut, len(recs))
		}
		if tail.Clean != (cut == intact) || tail.Offset != intact {
			t.Fatalf("cut %d: tail %+v", cut, tail)
		}
	}
	// Flip every single byte of the final record in turn: CRC (or the
	// length/sequence checks) must reject it, preserving the prefix.
	for pos := intact; pos < int64(len(b)); pos++ {
		mut := append([]byte(nil), b...)
		mut[pos] ^= 0x40
		recs, tail := scanBytes(t, mut)
		if len(recs) != 3 || tail.Clean || tail.Offset != intact {
			t.Fatalf("flip at %d: %d records, tail %+v", pos, len(recs), tail)
		}
	}
}

// TestSequenceGapRejected pins that a gap in sequence numbers ends the
// valid prefix (it means records were lost in the middle, which recovery
// must refuse to paper over).
func TestSequenceGapRejected(t *testing.T) {
	var b []byte
	b = appendRecord(b, rec(1, true))
	b = appendRecord(b, rec(3, true)) // gap: 2 missing
	recs, tail := scanBytes(t, b)
	if len(recs) != 1 || tail.Clean {
		t.Fatalf("gap not detected: %d records, tail %+v", len(recs), tail)
	}
}

// TestOpenAppendTruncatesTornTail reopens a torn log and continues it.
func TestOpenAppendTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var b []byte
	b = appendRecord(b, rec(1, true))
	b = appendRecord(b, rec(2, false))
	torn := append(append([]byte(nil), b...), 0xde, 0xad, 0xbe)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, tail, err := scanLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || tail.Clean {
		t.Fatalf("read %d records, tail %+v", len(recs), tail)
	}
	w, err := OpenAppend(path, tail.Offset, recs[len(recs)-1].Seq+1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r3 := rec(3, true)
	if _, err := w.Append(r3.Job, r3.Decision); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, tail, err = scanLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Clean || len(recs) != 3 || recs[2] != r3 {
		t.Fatalf("continued log: %d records, tail %+v", len(recs), tail)
	}
}

// TestRotateKeepsSequence pins rotation: the file empties, the sequence
// keeps counting, and a rotated-then-extended log reads back cleanly.
func TestRotateKeepsSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 3; s++ {
		r := rec(int64(s), true)
		if _, err := w.Append(r.Job, r.Decision); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err == nil {
		t.Fatal("Rotate with uncommitted records must fail")
	}
	w.Close()

	w, err = Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rec(1, true)
	if _, err := w.Append(r.Job, r.Decision); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if w.NextSeq() != 2 {
		t.Fatalf("NextSeq after rotate = %d, want 2", w.NextSeq())
	}
	r2 := rec(2, false)
	if _, err := w.Append(r2.Job, r2.Decision); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, tail, err := scanLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Clean || len(recs) != 1 || recs[0].Seq != 2 {
		t.Fatalf("rotated log: %d records (first seq %v), tail %+v", len(recs), recs, tail)
	}
}

// TestCrashPlanDeterminism pins Fire: survives After arrivals, fires on
// the next, then reports every point as crashed.
func TestCrashPlanDeterminism(t *testing.T) {
	p := &CrashPlan{Point: KillBeforeSync, After: 2}
	for i := 0; i < 2; i++ {
		if p.Fire(KillBeforeAppend) {
			t.Fatal("wrong point fired")
		}
		if p.Fire(KillBeforeSync) {
			t.Fatalf("fired after %d arrivals, want 2 survived", i)
		}
	}
	if !p.Fire(KillBeforeSync) {
		t.Fatal("did not fire on arrival 3")
	}
	if !p.Fire(KillBeforeAppend) || !p.Crashed() {
		t.Fatal("crashed plan must fail every point")
	}
}

// TestWriterCrashPoints drives each writer-side kill point and asserts
// exactly the promised bytes are durable afterwards.
func TestWriterCrashPoints(t *testing.T) {
	cases := []struct {
		plan      *CrashPlan
		wantRecs  int  // records recoverable after the crash
		wantClean bool // tail cleanliness after the crash
	}{
		{&CrashPlan{Point: KillBeforeAppend, After: 2}, 2, true},
		{&CrashPlan{Point: KillBeforeSync, After: 2}, 2, true},
		{&CrashPlan{Point: KillMidSync, After: 2, TornBytes: 10}, 2, false},
		{&CrashPlan{Point: KillMidSync, After: 2, TornBytes: 0}, 2, true},
		{&CrashPlan{Point: KillAfterSync, After: 2}, 3, true},
	}
	for i, tc := range cases {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, err := Create(path, Options{Crash: tc.plan})
		if err != nil {
			t.Fatal(err)
		}
		var lastErr error
		for s := int64(1); s <= 5 && lastErr == nil; s++ {
			r := rec(s, true)
			if _, lastErr = w.Append(r.Job, r.Decision); lastErr != nil {
				break
			}
			lastErr = w.Commit()
		}
		if !errors.Is(lastErr, ErrCrashed) {
			t.Fatalf("case %d (%s): crash never fired: %v", i, tc.plan.Point, lastErr)
		}
		if _, err := w.Append(job.Job{}, online.Decision{}); !errors.Is(err, ErrCrashed) {
			t.Fatalf("case %d: writer not poisoned after crash", i)
		}
		w.Close()
		recs, tail, err := scanLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != tc.wantRecs || tail.Clean != tc.wantClean {
			t.Fatalf("case %d (%s): recovered %d records (tail %+v), want %d (clean=%v)",
				i, tc.plan.Point, len(recs), tail, tc.wantRecs, tc.wantClean)
		}
	}
}

// TestFlushIntervalCoalesces proves the fsync-rate cap: many tiny
// commits under an interval produce far fewer fsyncs than commits.
func TestFlushIntervalCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var syncs int
	w, err := Create(path, Options{
		FlushInterval: 5 * time.Millisecond,
		OnSync:        func(int, time.Duration) { syncs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const commits = 10
	for s := int64(1); s <= commits; s++ {
		r := rec(s, true)
		if _, err := w.Append(r.Job, r.Decision); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	w.Close()
	if syncs != commits {
		t.Fatalf("every Commit with pending data must sync: %d syncs for %d commits", syncs, commits)
	}
	// The rate cap shows up as wall time: at least (commits-1) intervals.
	if min := time.Duration(commits-1) * 5 * time.Millisecond; elapsed < min {
		t.Fatalf("interval not honored: %v elapsed, want ≥ %v", elapsed, min)
	}
	recs, tail, err := scanLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Clean || len(recs) != commits {
		t.Fatalf("read %d records, tail %+v", len(recs), tail)
	}
}

// TestWriteFileAtomic pins the install and its crash point.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	if err := WriteFileAtomic(path, []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("installed %q", b)
	}
	plan := &CrashPlan{Point: KillBeforeSnapshotRename}
	if err := WriteFileAtomic(path, []byte("v2"), plan); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash point did not fire: %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("crashed install must leave the old file: got %q", b)
	}
}

// TestScanFileMissingFile pins the genesis contract.
func TestScanFileMissingFile(t *testing.T) {
	recs, tail, err := scanLog(filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || len(recs) != 0 || !tail.Clean || tail.Offset != 0 {
		t.Fatalf("missing log: recs=%d tail=%+v err=%v", len(recs), tail, err)
	}
}
