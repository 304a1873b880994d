package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"loadmax/internal/job"
	"loadmax/internal/policy"
	"loadmax/internal/serve"
)

// fixture is the pre-built durable state every round restores: one
// directory per backend group, written by a durable service that decided
// the group's share of the instance prefix in one ordered stream.
type fixture struct {
	dir      string
	records  []int // records per group
	checksum string
}

// groupDir is group g's directory under root.
func groupDir(root string, g int) string { return filepath.Join(root, fmt.Sprintf("g%d", g)) }

// fixtureChunk bounds the jobs per SubmitBatch while building a fixture.
const fixtureChunk = 4096

// buildFixture writes the fixture under dir. The prefix goes through
// SubmitBatch in release order from a single goroutine, so each shard's
// log holds the same bytes for the same seed.
func buildFixture(dir string, c config, b policy.Builder, prefix []job.Job, gr, sr serve.Policy) (*fixture, error) {
	fx := &fixture{dir: dir, records: make([]int, c.groups)}
	for g := 0; g < c.groups; g++ {
		var jobs []job.Job
		for _, j := range prefix {
			if gi, _ := route(gr, sr, c.groups, j); gi == g {
				jobs = append(jobs, j)
			}
		}
		svc, err := serve.New(shards, machines, eps,
			serve.WithDurability(groupDir(dir, g)), serve.WithPolicy(sr), serve.WithAdmissionPolicy(b))
		if err != nil {
			return nil, fmt.Errorf("fixture group %d: %w", g, err)
		}
		for off := 0; off < len(jobs); off += fixtureChunk {
			for _, r := range svc.SubmitBatch(jobs[off:min(off+fixtureChunk, len(jobs))]) {
				if r.Err != nil {
					svc.Close()
					return nil, fmt.Errorf("fixture group %d: %w", g, r.Err)
				}
			}
		}
		if err := svc.Close(); err != nil {
			return nil, fmt.Errorf("fixture group %d: close: %w", g, err)
		}
		fx.records[g] = len(jobs)
	}
	sum, err := treeChecksum(dir)
	if err != nil {
		return nil, err
	}
	fx.checksum = sum
	return fx, nil
}

// treeChecksum hashes every regular file under root (relative path and
// contents, in path order).
func treeChecksum(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("checksum %s: %w", root, err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel)
		h.Write([]byte{0})
		f, err := os.Open(p)
		if err != nil {
			return "", fmt.Errorf("checksum: %w", err)
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("checksum %s: %w", p, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// copyTree copies src to a fresh dst and fsyncs every file, so the
// restore that follows reads clean pages and its own fsyncs flush
// nothing of the copy.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(p, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	return out.Close()
}

// fsType names the filesystem holding dir, as statfs reports it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
