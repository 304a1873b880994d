// Package wal implements the per-shard write-ahead commitment log that
// makes the serving layer's admission decisions crash-durable.
//
// The paper's model is irrevocable commitment: the moment Algorithm 1
// returns an acceptance, the (machine, start-time) promise must be kept —
// including across a process crash. The WAL enforces the standard
// contract that makes this possible: every decision is appended and
// fsynced *before* its verdict is released to the caller, so any verdict
// a client has observed is durably recorded, and recovery (package serve)
// rebuilds the exact scheduler state by replaying the log through the
// deterministic core.
//
// # On-disk format
//
// A log is a sequence of length-prefixed, checksummed records:
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]
//
// The payload encodes one decision: a type tag, a strictly increasing
// sequence number, the effective (shard-clamped) job (r, p, d as raw
// float64 bits) and the verdict (accepted flag, machine, committed start
// time). Raw bits round-trip floats exactly, so a replayed stream is
// bit-identical to the served one. The scanner (ScanFile) accepts the longest
// valid prefix and reports where and why it stopped (Tail), which is
// exactly the crash-recovery contract: a torn final write — short
// header, short payload, or checksum mismatch — only ever destroys
// records whose verdicts were never released. It streams the log through
// a fixed-size buffer, so recovering a log of any length takes the same
// memory.
//
// # Group commit
//
// Append only buffers; Commit makes everything buffered durable with a
// single write+fsync. The serving layer appends a whole drained batch and
// commits once before replying, so the fsync cost amortizes over the
// batch. A configurable FlushInterval additionally caps the fsync rate:
// when the previous sync is more recent than the interval, Commit waits
// out the remainder, during which the shard's queue backs up and the next
// batch — the next commit group — grows. Under a storm of tiny batches
// this trades bounded extra latency (≤ one interval) for an order of
// magnitude fewer fsyncs.
//
// # Fault injection
//
// CrashPlan models a process crash at a deterministic kill-point: the
// Nth arrival at a chosen site in the append/flush/checkpoint paths,
// optionally with a torn write (a prefix of the pending bytes reaches
// the file, the rest — and the fsync — are lost). After the plan fires,
// every operation on every writer sharing the plan fails with
// ErrCrashed, mimicking whole-process death. The serve crash harness
// drives recovery-equivalence tests through it.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/online"
)

// Record is one logged decision: the effective job a shard submitted to
// its core scheduler and the irrevocable verdict it received, tagged with
// the shard-local sequence number.
type Record struct {
	Seq      int64
	Job      job.Job
	Decision online.Decision
}

const (
	recordType   = 1
	payloadLen   = 1 + 8 + 8 + 3*8 + 1 + 8 + 8 // type, seq, id, r/p/d, flags, machine, start
	headerLen    = 8                           // length + CRC
	recordLen    = headerLen + payloadLen
	acceptedFlag = 1
	fileMode     = 0o644
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord encodes r onto dst.
func appendRecord(dst []byte, r Record) []byte {
	var p [payloadLen]byte
	p[0] = recordType
	binary.LittleEndian.PutUint64(p[1:], uint64(r.Seq))
	binary.LittleEndian.PutUint64(p[9:], uint64(int64(r.Job.ID)))
	binary.LittleEndian.PutUint64(p[17:], math.Float64bits(r.Job.Release))
	binary.LittleEndian.PutUint64(p[25:], math.Float64bits(r.Job.Proc))
	binary.LittleEndian.PutUint64(p[33:], math.Float64bits(r.Job.Deadline))
	if r.Decision.Accepted {
		p[41] = acceptedFlag
	}
	binary.LittleEndian.PutUint64(p[42:], uint64(int64(r.Decision.Machine)))
	binary.LittleEndian.PutUint64(p[50:], math.Float64bits(r.Decision.Start))

	var h [headerLen]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(h[4:], crc32.Checksum(p[:], castagnoli))
	dst = append(dst, h[:]...)
	return append(dst, p[:]...)
}

// decodePayload decodes one checksummed payload of payloadLen bytes.
func decodePayload(p []byte) (Record, error) {
	if p[0] != recordType {
		return Record{}, fmt.Errorf("wal: unknown record type %d", p[0])
	}
	var r Record
	r.Seq = int64(binary.LittleEndian.Uint64(p[1:]))
	r.Job.ID = int(int64(binary.LittleEndian.Uint64(p[9:])))
	r.Job.Release = math.Float64frombits(binary.LittleEndian.Uint64(p[17:]))
	r.Job.Proc = math.Float64frombits(binary.LittleEndian.Uint64(p[25:]))
	r.Job.Deadline = math.Float64frombits(binary.LittleEndian.Uint64(p[33:]))
	r.Decision.JobID = r.Job.ID
	r.Decision.Accepted = p[41]&acceptedFlag != 0
	r.Decision.Machine = int(int64(binary.LittleEndian.Uint64(p[42:])))
	r.Decision.Start = math.Float64frombits(binary.LittleEndian.Uint64(p[50:]))
	return r, nil
}

// Tail describes where a log's valid prefix ends.
type Tail struct {
	// Offset is the byte offset just past the last valid record — the
	// truncation point for reopening the log in append mode.
	Offset int64
	// Clean is true when the log ends exactly at a record boundary.
	Clean bool
	// Reason explains a non-clean tail (torn header, torn payload,
	// checksum mismatch, bad length, sequence gap).
	Reason string
}

// scanBufSize is the read buffer of a log scan: whatever a log's length,
// recovery holds this buffer and one record, never the log.
const scanBufSize = 64 << 10

// scan is ScanFile's reader loop, over any reader.
func scan(r io.Reader, fn func(Record) error) (Tail, error) {
	br := bufio.NewReaderSize(r, scanBufSize)
	var off, prev int64
	for first := true; ; first = false {
		b, err := br.Peek(recordLen)
		if err != nil && err != io.EOF {
			return Tail{Offset: off}, fmt.Errorf("wal: read at offset %d: %w", off, err)
		}
		if len(b) == 0 {
			return Tail{Offset: off, Clean: true}, nil
		}
		if len(b) < headerLen {
			return Tail{Offset: off, Reason: "torn header"}, nil
		}
		if n := binary.LittleEndian.Uint32(b[0:]); n != payloadLen {
			return Tail{Offset: off, Reason: fmt.Sprintf("bad length %d", n)}, nil
		}
		if len(b) < recordLen {
			return Tail{Offset: off, Reason: "torn payload"}, nil
		}
		p := b[headerLen:recordLen]
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
			return Tail{Offset: off, Reason: "checksum mismatch"}, nil
		}
		rec, err := decodePayload(p)
		if err != nil {
			return Tail{Offset: off, Reason: err.Error()}, nil
		}
		if !first && rec.Seq != prev+1 {
			return Tail{Offset: off, Reason: fmt.Sprintf("sequence gap: %d after %d", rec.Seq, prev)}, nil
		}
		if err := fn(rec); err != nil {
			return Tail{Offset: off}, err
		}
		prev = rec.Seq
		off += recordLen
		br.Discard(recordLen) //nolint:errcheck // the bytes were peeked
	}
}

// ScanFile reads the longest valid record prefix of the log at path,
// calling fn on each of its records in order, and reports where and why
// the prefix ended. Records must carry strictly consecutive sequence
// numbers; the first violation — like any torn or corrupt data — ends
// the valid prefix. A non-clean tail is not an error: it is the expected
// shape of a log cut by a crash. The checks run in a fixed order per
// record: torn header, bad length, torn payload, checksum, decode,
// sequence gap. A missing file is not an error either: it yields no
// records and a clean tail at offset 0, the genesis state of a shard
// that never committed anything.
//
// Two things are errors, and both stop the scan. A read error other than
// EOF is returned wrapped, never reported as a torn tail: the bytes past
// it are unknown, and truncating there could drop acknowledged records.
// An error from fn is returned unchanged. On either, the returned Tail
// only marks how far the scan got.
func ScanFile(path string, fn func(Record) error) (Tail, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return Tail{Clean: true}, nil
	}
	if err != nil {
		return Tail{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	return scan(f, fn)
}

// --- Fault injection -----------------------------------------------------

// KillPoint names a deterministic crash-injection site.
type KillPoint int

const (
	// KillBeforeAppend crashes in the submit path, before the decision
	// is buffered: the core has decided, nothing reaches the log.
	KillBeforeAppend KillPoint = iota + 1
	// KillBeforeSync crashes in the flush path before any byte of the
	// pending group reaches the file.
	KillBeforeSync
	// KillMidSync models a torn write: TornBytes of the pending group
	// reach the file, the fsync never happens.
	KillMidSync
	// KillAfterSync crashes after the group is durable but before the
	// verdicts are released: recovery sees decisions no caller ever did.
	KillAfterSync
	// KillBeforeSnapshotRename crashes a checkpoint after the temp
	// snapshot is written but before it is atomically installed.
	KillBeforeSnapshotRename
	// KillAfterSnapshotRename crashes a checkpoint after the snapshot is
	// installed but before the log is rotated: the log still holds
	// records the snapshot already covers.
	KillAfterSnapshotRename
)

func (p KillPoint) String() string {
	switch p {
	case KillBeforeAppend:
		return "before-append"
	case KillBeforeSync:
		return "before-sync"
	case KillMidSync:
		return "mid-sync"
	case KillAfterSync:
		return "after-sync"
	case KillBeforeSnapshotRename:
		return "before-snapshot-rename"
	case KillAfterSnapshotRename:
		return "after-snapshot-rename"
	default:
		return fmt.Sprintf("KillPoint(%d)", int(p))
	}
}

// ErrCrashed is returned by every operation after an injected crash
// fired: the process is modeled as dead, nothing durable happens anymore.
var ErrCrashed = errors.New("wal: injected crash")

// CrashPlan is a deterministic fault-injection schedule: the plan fires
// on the (After+1)-th arrival at Point, and from then on every writer
// and checkpoint sharing the plan is dead (whole-process semantics).
// A nil plan never fires. Safe for concurrent use.
type CrashPlan struct {
	Point KillPoint
	// After is the number of arrivals at Point to survive before firing.
	After int
	// TornBytes is, for KillMidSync, how many bytes of the pending group
	// reach the file before the crash.
	TornBytes int

	mu      sync.Mutex
	hits    int
	crashed bool
}

// Fire records an arrival at point and reports whether the plan (now)
// fires. Once fired, Fire returns true for every point: a crashed
// process performs no further durable work.
func (p *CrashPlan) Fire(point KillPoint) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return true
	}
	if point != p.Point {
		return false
	}
	p.hits++
	if p.hits > p.After {
		p.crashed = true
		return true
	}
	return false
}

// Crashed reports whether the plan has fired.
func (p *CrashPlan) Crashed() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// --- Writer --------------------------------------------------------------

// Options configures a Writer.
type Options struct {
	// FlushInterval caps the fsync rate (see the package comment).
	// 0 syncs on every Commit.
	FlushInterval time.Duration
	// OnSync observes every completed fsync: bytes made durable and the
	// write+fsync wall time. Used by the serving layer's fsync-latency
	// histogram. May be nil.
	OnSync func(bytes int, d time.Duration)
	// Crash is the fault-injection schedule. nil runs normally.
	Crash *CrashPlan
}

// Writer is a single-writer append log. Exactly one goroutine — the
// owning shard — may call Append/Commit/Rotate/Close; that is the same
// single-writer discipline the shard already imposes on its scheduler.
type Writer struct {
	f       *os.File
	opt     Options
	buf     []byte // encoded records not yet durable
	nextSeq int64
	synced  int64 // bytes durably written and fsynced
	last    time.Time
	err     error // sticky: after any failure the writer refuses all work
}

// Create creates (or truncates) a fresh log at path and fsyncs the
// parent directory so the file itself survives a crash.
func Create(path string, opt Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, fileMode)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, opt: opt, nextSeq: 1}, nil
}

// OpenAppend reopens a recovered log for appending: it truncates the
// torn tail at validLen (dropping bytes no verdict was ever released
// for) and continues the sequence at nextSeq.
func OpenAppend(path string, validLen, nextSeq int64, opt Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, fileMode)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync after truncate: %w", err)
	}
	return &Writer{f: f, opt: opt, nextSeq: nextSeq, synced: validLen}, nil
}

// NextSeq returns the sequence number the next Append will use.
func (w *Writer) NextSeq() int64 { return w.nextSeq }

// SyncedBytes returns how many bytes of the log are durably on disk
// (torn mid-sync bytes excluded).
func (w *Writer) SyncedBytes() int64 { return w.synced }

// Err returns the sticky error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// Append buffers one decision record and returns its sequence number.
// Nothing is durable until Commit returns nil.
func (w *Writer) Append(j job.Job, dec online.Decision) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.opt.Crash.Fire(KillBeforeAppend) {
		return 0, w.fail(ErrCrashed)
	}
	seq := w.nextSeq
	w.buf = appendRecord(w.buf, Record{Seq: seq, Job: j, Decision: dec})
	w.nextSeq++
	return seq, nil
}

// Commit makes every buffered record durable: one write, one fsync.
// Under a FlushInterval it first waits out the remainder of the interval
// since the previous sync, growing the next group instead of syncing
// per tiny batch. On return with nil, every previously appended record
// will survive a crash; on error, none of the still-buffered records
// were promised to anyone and the writer is poisoned.
func (w *Writer) Commit() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	if w.opt.Crash.Fire(KillBeforeSync) {
		return w.fail(ErrCrashed)
	}
	if iv := w.opt.FlushInterval; iv > 0 && !w.last.IsZero() {
		if wait := iv - time.Since(w.last); wait > 0 {
			time.Sleep(wait)
		}
	}
	if w.opt.Crash.Fire(KillMidSync) {
		n := w.opt.Crash.TornBytes
		if n > len(w.buf) {
			n = len(w.buf)
		}
		if n > 0 {
			w.f.Write(w.buf[:n]) // torn write: reaches the file, never fsynced
		}
		return w.fail(ErrCrashed)
	}
	start := time.Now()
	if _, err := w.f.Write(w.buf); err != nil {
		return w.fail(fmt.Errorf("wal: write: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	n := len(w.buf)
	w.synced += int64(n)
	w.buf = w.buf[:0]
	w.last = time.Now()
	if w.opt.OnSync != nil {
		w.opt.OnSync(n, w.last.Sub(start))
	}
	if w.opt.Crash.Fire(KillAfterSync) {
		return w.fail(ErrCrashed)
	}
	return nil
}

// Rotate truncates the log after a checkpoint: every record is covered
// by the freshly installed snapshot, so the file restarts empty while
// the sequence keeps counting (recovery matches snapshot.LastSeq against
// record sequences, so a crash between snapshot install and rotation is
// harmless — covered records are skipped, not replayed twice).
func (w *Writer) Rotate() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) != 0 {
		return w.fail(errors.New("wal: rotate with uncommitted records"))
	}
	if err := w.f.Truncate(0); err != nil {
		return w.fail(fmt.Errorf("wal: rotate: %w", err))
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return w.fail(fmt.Errorf("wal: rotate seek: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("wal: rotate fsync: %w", err))
	}
	w.synced = 0
	return nil
}

// Close closes the underlying file. Buffered but uncommitted records are
// deliberately dropped: no verdict was ever released for them.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// WriteFileAtomic writes blob to path via a temp file, fsync and rename,
// then fsyncs the directory — the standard crash-safe file install used
// for shard snapshots and the service manifest. The crash plan's
// KillBeforeSnapshotRename point sits between the durable temp write and
// the rename; a crash there leaves the previous file (or none) installed
// plus a stray temp file, exactly like a real process death would.
func WriteFileAtomic(path string, blob []byte, plan *CrashPlan) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if plan.Fire(KillBeforeSnapshotRename) {
		return ErrCrashed // the stray temp file stays, as after a real crash
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
