// Command perfbench is the serving stack's benchmark. It replays one
// workload's per-shard job streams against the stack — restored from a
// durable fixture each round — and prints the end-to-end metrics (with
// --trace 0) or the layer-ladder metrics (with --trace 1) as the last
// line of standard output. Run it through run.sh from the repository
// root, which builds it:
//
//	bash perfbench/run.sh --workload rpc-durable --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// commit is stamped at build time by run.sh.
var commit = "unknown"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported with --trace 0 on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"verdict_p50_us", "us"},
	{"verdict_p95_us", "us"},
	{"ok_frac", "fraction"},
	{"accepted_mass_frac", "fraction"},
	{"cpu_us_per_job", "us"},
	{"alloc_b_per_job", "B"},
	{"live_heap_mb", "MB"},
}

// layerMetrics are reported with --trace 1 on every workload.
var layerMetrics = []metricDef{
	{"verdict_p99_us", "us"},
	{"core.decide_ns", "ns"},
	{"policy.decide_ns", "ns"},
	{"policy.adapter_ns", "ns"},
	{"serve.self_ns_per_job", "ns"},
	{"serve.queue_wait_p50_us", "us"},
	{"serve.queue_wait_p99_us", "us"},
	{"serve.jobs_per_drain", "count"},
	{"serve.shard_skew", "ratio"},
	{"wal.append_ns", "ns"},
	{"wal.commit_p50_us", "us"},
	{"wal.park_p50_us", "us"},
	{"wal.park_p99_us", "us"},
	{"wal.self_ns_per_job", "ns"},
	{"wal.commits_per_kjob", "count"},
	{"wal.bytes_per_job", "B"},
	{"wal.restore_rec_per_s", "1/s"},
	{"netserve.rtt_stub_p50_us", "us"},
	{"netserve.rtt_stub_p99_us", "us"},
	{"netserve.self_us", "us"},
	{"netserve.decode_p50_us", "us"},
	{"netserve.reply_p50_us", "us"},
	{"netserve.client_p50_us", "us"},
	{"netserve.shed_frac", "fraction"},
	{"gateway.hop_p50_us", "us"},
	{"gateway.mirror_self_us", "us"},
	{"gateway.jobs_per_backend_call", "count"},
	{"gateway.mirror_lag_p99", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"ladder.unattributed_frac", "fraction"},
	{"ladder.r1_core_ns", "ns"},
	{"ladder.r2_policy_ns", "ns"},
	{"ladder.r3_serve_mem_ns", "ns"},
	{"ladder.r4_serve_durable_ns", "ns"},
	{"ladder.r5_wire_stub_ns", "ns"},
	{"ladder.r6_daemon_ns", "ns"},
	{"ladder.r7_gateway_ns", "ns"},
	{"ladder.r8_gateway_mirror_ns", "ns"},
}

// minRounds is the fewest counted rounds an untraced run makes.
const minRounds = 3

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "rpc-durable", "workload name")
	seed := flag.Int64("seed", 1, "instance seed")
	seconds := flag.Float64("seconds", 10, "timed seconds per run (untraced)")
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder instead of the end-to-end rounds")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for fixtures and logs")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	c, err := configByName(*name)
	if err != nil {
		return fail(err)
	}
	work := os.Getenv(memfsEnv)
	if work == "" {
		work = filepath.Join(*workdir, fmt.Sprintf("%s-%d", c.name, os.Getpid()))
		if err := os.MkdirAll(work, 0o755); err != nil {
			return fail(err)
		}
		defer os.RemoveAll(work)
		if code, ok := runWithMemfs(work); ok {
			return code
		}
	} else if err := syscall.Mount("perfbench", work, "tmpfs", syscall.MS_NOSUID|syscall.MS_NODEV, "mode=0755"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: mount tmpfs on %s: %v; the WAL stays on the checkout's filesystem\n", work, err)
	}

	b, err := prepare(c, *seed, work)
	if err != nil {
		return fail(err)
	}
	meta := map[string]any{
		"workload": c.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"commit": commit, "source_digest": sourceDigest("."),
		"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu_model": cpuModel(), "wal_fs": fsType(work),
		"fixture_checksum": b.fix.checksum, "fixture_records": b.fix.records,
		"policy": b.builder.Spec, "groups": c.groups, "shards": shards, "machines": machines,
		"timed_jobs_per_round": c.timed, "streams": len(b.streams),
		"load_generator": "closed loop, one call in flight per stream",
	}

	var res result
	var values map[string]float64
	var defs []metricDef
	stealStart := hostCPU()
	if *trace == 1 {
		lr, err := runLadder(b)
		if err != nil {
			return failRun(err, res)
		}
		values, defs = lr.metrics, layerMetrics
		res.Attempted, res.Failed = lr.calls, lr.failed
		meta["samples"] = lr.samples
		meta["ladder"] = map[string]any{
			"e2e_ns_per_job": lr.e2eNs, "path_ns_per_job": lr.pathNs,
			"tolerance": reconcileTolerance, "reconciled": lr.reconciled,
		}
	} else {
		er, err := runE2E(b, *seconds, minRounds)
		if err != nil {
			return failRun(err, res)
		}
		values, defs = er.metrics, e2eMetrics
		res.Attempted, res.Failed = er.calls, er.failed
		meta["samples"] = er.samples
	}
	meta["host_steal_pct"] = hostCPU().stealPct(stealStart)
	res.Correct = true
	res.Metrics = map[string]metricOut{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(fmt.Errorf("metric %s has no finite value (%v)", d.name, v))
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	printJSON(map[string]any{"meta": meta})
	printJSON(res)
	return 0
}

// memfsEnv carries the work directory to a child that runs in a private
// mount namespace with a tmpfs mounted there.
const memfsEnv = "PERFBENCH_MEMFS"

// runWithMemfs re-runs the benchmark in a private mount namespace, where
// it mounts a tmpfs on work: the WAL then lives in memory, still fsyncing
// every group commit, at a path inside the checkout, and the mount ends
// with the child. It reports false, having started nothing, when the
// namespace cannot be had; the run then stays on the checkout's own
// filesystem, which the stamp records.
func runWithMemfs(work string) (int, bool) {
	exe, err := os.Executable()
	if err != nil {
		return 0, false
	}
	cmd := exec.Command(exe, os.Args[1:]...)
	cmd.Env = append(os.Environ(), memfsEnv+"="+work)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Unshareflags: syscall.CLONE_NEWNS, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: no private mount namespace (%v); the WAL stays on the checkout's filesystem\n", err)
		return 0, false
	}
	err = cmd.Wait()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, true
	case errors.As(err, &ee) && ee.ExitCode() > 0:
		return ee.ExitCode(), true
	default:
		return fail(err), true
	}
}

// checkError is a failed output check, as opposed to a failure to run.
type checkError struct{ err error }

func (e *checkError) Error() string { return e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// failRun reports a run that stopped: a failed check still prints a
// result with correct=false; anything else prints none.
func failRun(err error, res result) int {
	var ce *checkError
	if errors.As(err, &ce) {
		res.Metrics = map[string]metricOut{}
		printJSON(res)
	}
	return fail(err)
}

func printJSON(v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(blob))
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is the machine-wide CPU time from /proc/stat: all of it, and
// the share the hypervisor gave to other guests (steal).
type cpuTicks struct{ total, steal uint64 }

func hostCPU() cpuTicks {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user … steal; guest time is already inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the percentage of machine CPU time stolen since start: a
// run on a host that steals much is a run whose timings the host moved.
func (t cpuTicks) stealPct(start cpuTicks) float64 {
	if t.total <= start.total {
		return 0
	}
	return 100 * float64(t.steal-start.steal) / float64(t.total-start.total)
}

// sourceDigest hashes the Go sources and module files under root, so a
// result from a checkout without version control still names its code.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if n := d.Name(); d.Type().IsRegular() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
