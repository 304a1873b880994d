package netserve

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"testing"

	"loadmax/internal/job"
)

// armedReader serves data in chunks of at most step bytes and fails the
// test if it is read while armed — the state in which the boundary check
// has promised that the next frame is already buffered.
type armedReader struct {
	t     *testing.T
	data  []byte
	step  int
	armed bool
}

func (r *armedReader) Read(p []byte) (int, error) {
	if r.armed {
		r.t.Fatal("frameBuffered reported a complete frame, but readFrame read from the connection")
	}
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.step)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// readAllFrames runs the server read loop's pattern over data — boundary
// check, then readFrame into one reused scratch — handing every verified
// payload to each, until the stream ends or a frame is refused.
func readAllFrames(t *testing.T, data []byte, step int, each func(p []byte)) {
	src := &armedReader{t: t, data: data, step: step}
	br := bufio.NewReaderSize(src, 4096)
	var scratch []byte
	for {
		src.armed = frameBuffered(br)
		p, err := readFrame(br, scratch)
		src.armed = false
		if err != nil {
			return
		}
		if len(p) > maxPayload {
			t.Fatalf("payload of %d bytes exceeds maxPayload", len(p))
		}
		scratch = p[:0]
		each(p)
	}
}

// FuzzReadFrame feeds arbitrary bytes through the wire read path:
// readFrame, the burst-boundary check and every decoder. Properties: no
// panic; the boundary check never calls a frame complete that readFrame
// would have to read the connection for; readFrame's allocation is
// bounded by maxPayload plus the bytes actually consumed, never by a
// declared length; and every payload a decoder accepts re-encodes to
// the same bytes (encode∘decode is the identity on encoder output). The
// committed corpus holds a valid frame of each type, a truncated
// header, length 0, a length above maxPayload, a bad CRC, and
// submit-batch counts 0 and 1025.
func FuzzReadFrame(f *testing.F) {
	f.Add(fuzzSeedStream())
	f.Fuzz(func(t *testing.T, b []byte) {
		// Chunk sizes decide what is buffered when the boundary check
		// runs: 1 never leaves a header behind, larger steps leave whole
		// and partial frames buffered, len(b)+1 delivers everything.
		for _, step := range []int{1, 13, 100, len(b) + 1} {
			readAllFrames(t, b, step, func(p []byte) { checkDecoders(t, p) })
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		readAllFrames(t, b, len(b)+1, func([]byte) {})
		runtime.ReadMemStats(&after)
		limit := uint64(maxPayload + len(b) + 64<<10)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("reading %d bytes allocated %d bytes (limit %d)", len(b), grew, limit)
		}
	})
}

// checkDecoders runs every decoder over p and requires each accepted
// payload to re-encode to exactly p. Verdict messages longer than the
// encoder's maxMsgLen cap are accepted by the decoders but can never be
// produced by the encoders, so there only decode∘encode is checked.
func checkDecoders(t *testing.T, p []byte) {
	reencoded := func(name string, frame []byte) {
		t.Helper()
		if !bytes.Equal(frame[wireHeaderLen:], p) {
			t.Fatalf("%s: re-encoded payload %x, decoded from %x", name, frame[wireHeaderLen:], p)
		}
	}
	if decodeHello(p) == nil {
		reencoded("hello", appendHello(nil))
	}
	if a, err := decodeHelloAck(p); err == nil {
		reencoded("hello-ack", appendHelloAck(nil, a))
	}
	if s, err := decodeSubmit(p); err == nil {
		reencoded("submit", appendSubmit(nil, s))
	}
	if sb, err := decodeSubmitBatch(p); err == nil {
		reencoded("submit-batch", appendSubmitBatch(nil, sb))
	}
	if v, err := decodeVerdict(p); err == nil {
		frame := appendVerdict(nil, v)
		if len(v.Msg) <= maxMsgLen {
			reencoded("verdict", frame)
		} else if w, err := decodeVerdict(frame[wireHeaderLen:]); err != nil || w.Msg != v.Msg[:maxMsgLen] {
			t.Fatalf("verdict with a %d-byte message does not survive re-encoding: %v", len(v.Msg), err)
		}
	}
	vb, err := decodeVerdictBatchInto(p, nil)
	pooled, perr := decodeVerdictBatchInto(p, getVerdicts())
	if (err == nil) != (perr == nil) {
		t.Fatalf("verdict-batch decode disagrees with pooled scratch: %v vs %v", err, perr)
	}
	if err == nil {
		long := false
		for i, v := range vb.Verdicts {
			if v != pooled.Verdicts[i] {
				t.Fatalf("verdict-batch entry %d: %+v, pooled %+v", i, v, pooled.Verdicts[i])
			}
			long = long || len(v.Msg) > maxMsgLen
		}
		frame := appendVerdictBatch(nil, vb)
		if !long {
			reencoded("verdict-batch", frame)
		} else if _, err := decodeVerdictBatch(frame[wireHeaderLen:]); err != nil {
			t.Fatalf("verdict-batch with long messages does not survive re-encoding: %v", err)
		}
	}
	putVerdicts(pooled.Verdicts)
}

// fuzzSeedStream is the in-code seed: one valid stream holding a frame
// of each type.
func fuzzSeedStream() []byte {
	var stream []byte
	stream = appendHello(stream)
	stream = appendHelloAck(stream, helloAck{Version: ProtocolVersion, Window: 256, Shards: 4, Machines: 64, Eps: 0.1, Policy: "threshold"})
	stream = appendSubmit(stream, submitFrame{ID: 1, Job: job.Job{ID: 7, Release: 1, Proc: 2, Deadline: 9}})
	stream = appendVerdict(stream, verdictFrame{ID: 1, Status: statusAccept, Machine: 3, Start: 1})
	stream = appendVerdict(stream, verdictFrame{ID: 2, Status: statusError, Msg: "wal poisoned"})
	stream = appendSubmitBatch(stream, submitBatchFrame{ID: 3, Jobs: []job.Job{{ID: 8, Proc: 1, Deadline: 5}, {ID: 9, Release: 2, Proc: 1, Deadline: 6}}})
	return appendVerdictBatch(stream, verdictBatchFrame{ID: 3, Verdicts: []batchVerdict{{Status: statusReject}, {Status: statusShed}, {Status: statusError, Msg: "closed"}}})
}
