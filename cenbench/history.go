package main

// The seeded store history a node restarts over. setup_s measures what
// a censerved restart costs — store replay, result-cache warm-up, world
// build — so the store must already hold finished jobs. The history is
// built once per invocation from the workload seed, and every restart
// gets a fresh copy, so setup_s times replay, never history writing.

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"cendev/internal/serve"
	"cendev/internal/vfs"
	"cendev/internal/wire"
)

// noSyncFS writes the history without an fsync per record: it is built
// once per invocation as a fixture, and its durability is not what is
// measured. syncTree flushes it once at the end.
type noSyncFS struct{ vfs.FS }

type noSyncFile struct{ vfs.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (f noSyncFS) Create(name string) (vfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

// historyJobs is how many finished jobs the history holds. Replaying a
// store this size takes tens of milliseconds, where a start over an
// empty store took 1–3 ms and was too short to time steadily.
const historyJobs = 10000

// history is a finished-job fixture: the specs, their payloads and
// digests, and the job IDs a standalone store assigned them.
type history struct {
	specs    []serve.JobSpec
	payloads [][]byte
	digests  []string
	ids      []string
}

func newHistory(m *mix, workers int) (*history, error) {
	h := &history{specs: m.specs(historyJobs)}
	var err error
	h.payloads, h.digests, err = reference(h.specs, workers, true)
	return h, err
}

// writeStandalone writes the history as a standalone node's store:
// every job queued, then done with its payload.
func (h *history) writeStandalone(dir string) error {
	st, err := serve.OpenStoreFS(noSyncFS{vfs.OS()}, dir, serve.DefaultShards)
	if err != nil {
		return err
	}
	for i, spec := range h.specs {
		e, err := st.AppendQueued(spec)
		if err != nil {
			return err
		}
		if err := st.UpdateDone(e.ID, 1, h.payloads[i], h.digests[i], nil); err != nil {
			return err
		}
		h.ids = append(h.ids, e.ID)
	}
	h.payloads = nil // the store holds them now
	if err := closeCompacted(st); err != nil {
		return err
	}
	return syncTree(dir)
}

// closeCompacted leaves a store the way a clean censerved drain does:
// compacted to one record per job.
func closeCompacted(st *serve.Store) error {
	if err := st.Compact(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// replayedKeys reports, per history job, whether its spec replays from
// a copy of the store in dir with the result-cache key it was written
// with. A restarted node can serve a repeat from its cache only then.
func (h *history) replayedKeys(dir string) ([]bool, error) {
	st, err := serve.OpenStore(dir, serve.DefaultShards)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	same := make([]bool, len(h.specs))
	for i, id := range h.ids {
		e, ok := st.Get(id)
		same[i] = ok && e.Spec.CanonKey() == h.specs[i].CanonKey()
	}
	return same, nil
}

// writeCluster writes the history as a cluster's stores: the
// coordinator holds digests and replica sets, every worker holds every
// payload (replication equals the worker count).
func (h *history) writeCluster(dirs clusterDirs) error {
	coord, err := serve.OpenStoreFS(noSyncFS{vfs.OS()}, dirs.coord, serve.DefaultShards)
	if err != nil {
		return err
	}
	var nodes []string
	workers := map[string]*serve.Store{}
	for node, dir := range dirs.workers {
		st, err := serve.OpenStoreFS(noSyncFS{vfs.OS()}, dir, serve.DefaultShards)
		if err != nil {
			return err
		}
		workers[node] = st
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for i, spec := range h.specs {
		e, err := coord.AppendQueued(spec)
		if err != nil {
			return err
		}
		if err := coord.UpdateDone(e.ID, 1, nil, h.digests[i], nodes); err != nil {
			return err
		}
		for _, node := range nodes {
			if err := workers[node].PutResult(e.ID, spec, h.payloads[i], h.digests[i]); err != nil {
				return err
			}
		}
	}
	h.payloads = nil // the stores hold them now
	for _, st := range workers {
		if err := closeCompacted(st); err != nil {
			return err
		}
	}
	if err := closeCompacted(coord); err != nil {
		return err
	}
	for _, dir := range dirs.workers {
		if err := syncTree(dir); err != nil {
			return err
		}
	}
	return syncTree(dirs.coord)
}

// syncTree flushes every file under dir to disk. Pages the benchmark
// wrote and left dirty would otherwise be written back by the kernel
// half a minute later, in the middle of a measured window, and slow the
// nodes' own fsyncs.
func syncTree(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

// copyTree copies the regular files under src to dst, flushed to disk
// for the reason syncTree gives.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// countRecords counts the record frames in a store directory's binary
// segments: the records a replay of that directory reads.
func countRecords(dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.bin"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		for r := wire.NewReader(raw); ; n++ {
			if _, ok := r.Next(); !ok {
				break
			}
		}
	}
	return n, nil
}
