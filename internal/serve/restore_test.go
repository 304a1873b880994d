package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/workload"
)

// TestRestoreToleratedOverlapCheckpoint: δ-commitment may place a slot
// overlapping its neighbour within job.TimeEps. A checkpoint taken at
// that point must restore, and the restored service must go on deciding
// as the uninterrupted one does.
func TestRestoreToleratedOverlapCheckpoint(t *testing.T) {
	b := matrixBuilder(t, "delta-commit:delta=1")
	jobs := []job.Job{
		{ID: 0, Release: 0, Proc: 1, Deadline: 10},
		{ID: 1, Release: 1 - 1e-13, Proc: 1, Deadline: 10},
		{ID: 2, Release: 1.5, Proc: 2, Deadline: 9},
		{ID: 3, Release: 2, Proc: 1, Deadline: 3.5},
	}
	ref, err := b.New(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]online.Decision, len(jobs))
	for i, j := range jobs {
		want[i] = ref.Submit(j)
	}

	dir := t.TempDir()
	svc, err := New(1, 1, 0.5, WithDurability(dir), WithAdmissionPolicy(b), WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs[:2] {
		dec, err := svc.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		if !online.SameDecision(dec, want[i]) {
			t.Fatalf("job %d: %+v, reference %+v", i, dec, want[i])
		}
	}
	if !want[1].Accepted || want[1].Start >= 1 {
		t.Fatalf("job 1 no longer overlaps job 0: %+v", want[1])
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Restore(dir, WithDecisionLog(), WithBatchSize(1))
	if err != nil {
		t.Fatalf("restore of a checkpoint holding a tolerated overlap: %v", err)
	}
	for i, j := range jobs[2:] {
		dec, err := rec.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		if !online.SameDecision(dec, want[i+2]) {
			t.Fatalf("post-restore job %d: %+v, reference %+v", i+2, dec, want[i+2])
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
}

// durableFixture writes a closed durable service over jobs: half the
// stream, a checkpoint, then the rest, so every shard has a snapshot
// and a log tail.
func durableFixture(t testing.TB, dir string, shards, m int, b policy.Builder, jobs []job.Job) {
	t.Helper()
	svc, err := New(shards, m, 0.1, WithDurability(dir), WithAdmissionPolicy(b))
	if err != nil {
		t.Fatal(err)
	}
	submit := func(part []job.Job) {
		for _, r := range svc.SubmitBatch(part) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	half := len(jobs) / 2
	submit(jobs[:half])
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	submit(jobs[half:])
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// editSnapshot rewrites one top-level field of a shard's snapshot,
// leaving every other field's bytes as they were.
func editSnapshot(t *testing.T, dir string, shard int, field string, value any) {
	t.Helper()
	p := filepath.Join(shardDir(dir, shard), snapshotName)
	blob, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc[field], err = json.Marshal(value); err != nil {
		t.Fatal(err)
	}
	if blob, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func lastSeq(t *testing.T, dir string, shard int) int64 {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(shardDir(dir, shard), snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var ck shardCheckpoint
	if err := json.Unmarshal(blob, &ck); err != nil {
		t.Fatal(err)
	}
	return ck.LastSeq
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// restoreDamage corrupts one shard of a durable fixture in each of the
// ways recovery refuses, each with the error it must produce.
var restoreDamage = []struct {
	name, wantErr string
	corrupt       func(t *testing.T, dir string, shard int, b policy.Builder)
}{
	{"snapshot", "snapshot", func(t *testing.T, dir string, shard int, _ policy.Builder) {
		p := filepath.Join(shardDir(dir, shard), snapshotName)
		if err := os.WriteFile(p, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"seq-gap", "records missing", func(t *testing.T, dir string, shard int, _ policy.Builder) {
		editSnapshot(t, dir, shard, "last_seq", lastSeq(t, dir, shard)-1)
	}},
	{"replay-divergence", "replay diverged", func(t *testing.T, dir string, shard int, b policy.Builder) {
		fresh, err := b.New(4, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := fresh.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		editSnapshot(t, dir, shard, "policy_state", st)
	}},
}

// TestRestoreFailureClosesLogs: when a shard fails to recover, Restore
// must close the logs it already reopened for the other shards, however
// the concurrent recoveries interleave.
func TestRestoreFailureClosesLogs(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	const shards, m = 4, 4
	b := matrixBuilder(t, "delta-commit:delta=0.5")
	jobs := workload.Poisson(workload.Spec{N: 1200, Eps: 0.1, M: shards * m, Load: 2, Seed: 3})
	master := t.TempDir()
	durableFixture(t, master, shards, m, b, jobs)

	for _, dmg := range restoreDamage {
		t.Run(dmg.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "svc")
			copyDir(t, master, dir)
			dmg.corrupt(t, dir, shards-1, b)
			// One failed attempt first, so lazily opened runtime
			// descriptors are in place before counting.
			if _, err := Restore(dir); err == nil {
				t.Fatal("restore of a corrupted shard succeeded")
			}
			runtime.GC() // let finalizers close what earlier tests dropped
			before := openFDs(t)
			for i := 0; i < 5; i++ {
				_, err := Restore(dir)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard %d", shards-1)) ||
					!strings.Contains(err.Error(), dmg.wantErr) {
					t.Fatalf("attempt %d: err = %v, want shard %d %q", i, err, shards-1, dmg.wantErr)
				}
			}
			if after := openFDs(t); after > before {
				t.Fatalf("failed restores leaked %d file descriptors", after-before)
			}
		})
	}
}

// TestNewDurableFailureClosesLogs: a fresh durable service that cannot
// set up its last shard closes the logs it created for the others.
func TestNewDurableFailureClosesLogs(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	const shards = 4
	attempt := func() {
		dir := filepath.Join(t.TempDir(), "svc")
		if err := os.MkdirAll(dir, dirMode); err != nil {
			t.Fatal(err)
		}
		// A file where the last shard's directory belongs.
		if err := os.WriteFile(shardDir(dir, shards-1), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := New(shards, 2, 0.5, WithDurability(dir))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard %d", shards-1)) {
			t.Fatalf("New over a blocked shard dir: err = %v", err)
		}
	}
	attempt() // warm-up, as in TestRestoreFailureClosesLogs
	runtime.GC()
	before := openFDs(t)
	for i := 0; i < 5; i++ {
		attempt()
	}
	if after := openFDs(t); after > before {
		t.Fatalf("failed New leaked %d file descriptors", after-before)
	}
}

// TestRestoreReportsLowestShardError: with several shards corrupted the
// error is the lowest-numbered shard's, whichever recovery fails first.
func TestRestoreReportsLowestShardError(t *testing.T) {
	const shards, m = 4, 4
	b := matrixBuilder(t, "threshold")
	jobs := workload.Poisson(workload.Spec{N: 800, Eps: 0.1, M: shards * m, Load: 2, Seed: 5})
	dir := t.TempDir()
	durableFixture(t, dir, shards, m, b, jobs)
	restoreDamage[0].corrupt(t, dir, 3, b)
	restoreDamage[1].corrupt(t, dir, 1, b)
	for i := 0; i < 10; i++ {
		_, err := Restore(dir)
		if err == nil || !strings.Contains(err.Error(), "shard 1 ") {
			t.Fatalf("attempt %d: err = %v, want shard 1's", i, err)
		}
	}
}

func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, dirMode)
		}
		blob, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, blob, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// benchmarkRestore times Restore of a durable service holding one
// backend's share of a 4-shard, 64-machine Poisson stream under spec: a
// checkpointed first half plus a replayed log tail.
func benchmarkRestore(b *testing.B, spec string) {
	pb, err := policy.Parse(spec)
	if err != nil {
		b.Fatal(err)
	}
	const shards, m = 4, 64
	jobs := workload.Poisson(workload.Spec{N: 16000, Eps: 0.1, M: shards * m, Load: 1.5, Seed: 1})
	master := b.TempDir()
	durableFixture(b, master, shards, m, pb, jobs)
	work := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(work, fmt.Sprint(i))
		copyDir(b, master, dir)
		b.StartTimer()
		svc, err := Restore(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := svc.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(len(jobs)-len(jobs)/2)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

func BenchmarkRestoreThreshold(b *testing.B)   { benchmarkRestore(b, "threshold") }
func BenchmarkRestoreDeltaCommit(b *testing.B) { benchmarkRestore(b, policy.DeltaCommitSpec(0.5)) }

// The commitment-log record layout (package wal), as far as the log
// surgery below needs it: fixed-size records of an 8-byte header
// (payload length, CRC32-C of the payload) and a payload whose byte 41
// is the accepted flag.
const (
	walRecordLen    = 66
	walHeaderLen    = 8
	walAcceptedByte = walHeaderLen + 41
)

// durableLogs writes a closed durable service of the given shard count
// over n Poisson jobs with no checkpoint, so every record is in the logs.
func durableLogs(t *testing.T, dir string, shards, n int) {
	t.Helper()
	svc, err := New(shards, 4, 0.1, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.Poisson(workload.Spec{N: n, Eps: 0.1, M: 4 * shards, Load: 2, Seed: 9})
	for _, r := range svc.SubmitBatch(jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreDivergenceLeavesLogIntact: a record whose logged verdict the
// policy does not recompute — tampered, with a valid checksum, so it
// passes the scanner — fails Restore, and the failure happens before the
// log is reopened: the file stays byte-identical, even the torn bytes a
// successful restore would have truncated.
func TestRestoreDivergenceLeavesLogIntact(t *testing.T) {
	dir := t.TempDir()
	durableLogs(t, dir, 1, 200)
	walPath := filepath.Join(shardDir(dir, 0), walName)
	blob, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != 200*walRecordLen {
		t.Fatalf("log holds %d bytes, want %d records", len(blob), 200)
	}
	rec := blob[100*walRecordLen : 101*walRecordLen]
	rec[walAcceptedByte] ^= 1
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[walHeaderLen:], crc32.MakeTable(crc32.Castagnoli)))
	blob = append(blob, 0xde, 0xad, 0xbe) // a torn tail OpenAppend would cut
	if err := os.WriteFile(walPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Restore(dir); err == nil || !strings.Contains(err.Error(), "replay diverged at seq 101") {
		t.Fatalf("restore over a tampered verdict: err = %v, want a divergence at seq 101", err)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, blob) {
		t.Fatalf("failed restore changed the log: %d bytes before, %d after", len(blob), len(after))
	}
}

// TestRestoreCountsTornTails pins the dropped-tail counters: a log cut
// mid-payload counts one torn tail and exactly the cut record's surviving
// bytes; a clean restore registers both counters at zero.
func TestRestoreCountsTornTails(t *testing.T) {
	counters := func(reg *obs.Registry) (torn, truncated int64) {
		snap := reg.Snapshot().Counters
		torn, okT := snap["serve_recovery_torn_tails_total"]
		truncated, okB := snap["serve_recovery_truncated_bytes_total"]
		if !okT || !okB {
			t.Fatal("dropped-tail counters not registered")
		}
		return torn, truncated
	}

	dir := t.TempDir()
	durableLogs(t, dir, 3, 300)
	walPath := filepath.Join(shardDir(dir, 1), walName)
	size := fileSize(t, walPath)
	const kept = walHeaderLen + 22 // the last record's header and part of its payload
	cut := size - walRecordLen + kept
	if err := os.Truncate(walPath, cut); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	svc, err := Restore(dir, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if torn, truncated := counters(reg); torn != 1 || truncated != kept {
		t.Fatalf("torn restore: torn tails %d, truncated bytes %d; want 1 and %d", torn, truncated, kept)
	}
	if got := fileSize(t, walPath); got != size-walRecordLen {
		t.Fatalf("log is %d bytes after restore, want %d", got, size-walRecordLen)
	}

	reg = obs.NewRegistry()
	svc, err = Restore(dir, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if torn, truncated := counters(reg); torn != 0 || truncated != 0 {
		t.Fatalf("clean restore: torn tails %d, truncated bytes %d; want 0 and 0", torn, truncated)
	}
}
