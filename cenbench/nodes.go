package main

// Node assembly: the benchmark starts censerved nodes in-process, each
// behind its own loopback listener, configured as an operator would
// configure censerved for the offered load.

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"path/filepath"
	"sync"

	"cendev/internal/cluster"
	"cendev/internal/obs"
	"cendev/internal/serve"
)

// serveOptions are the censerved settings for the benchmark's load:
// admission and queue capacity sit far above the offered rate, so no
// job is refused; everything else is the censerved default.
func serveOptions(dir string, reg *obs.Registry) serve.Options {
	return serve.Options{
		StoreDir:      dir,
		Workers:       2,
		QueueCapacity: 4096,
		AdmitBurst:    4096,
		AdmitRate:     10000,
		Obs:           reg,
	}
}

// listener serves one handler on a fresh loopback port.
type listener struct {
	hs   *http.Server
	ln   net.Listener
	done sync.WaitGroup
}

func listen() (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &listener{ln: ln, hs: &http.Server{}}, nil
}

func (l *listener) url() string { return "http://" + l.ln.Addr().String() }

func (l *listener) serve(h http.Handler) {
	l.hs.Handler = h
	l.done.Add(1)
	go func() {
		defer l.done.Done()
		_ = l.hs.Serve(l.ln)
	}()
}

func (l *listener) close() {
	l.hs.Close()
	l.done.Wait()
}

// standalone is one censerved node with its own scheduler.
type standalone struct {
	srv *serve.Server
	l   *listener
}

// startStandalone opens a node over dir. hook, when non-nil, is the
// node's executor (the traced run wraps a scheduler of its own with it).
func startStandalone(dir string, reg *obs.Registry, hook func(serve.JobSpec) (json.RawMessage, error)) (*standalone, error) {
	opts := serveOptions(dir, reg)
	opts.RunHook = hook
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	l, err := listen()
	if err != nil {
		srv.Drain()
		return nil, err
	}
	l.serve(srv.Handler())
	return &standalone{srv: srv, l: l}, nil
}

func (n *standalone) url() string { return n.l.url() }

func (n *standalone) stop() error {
	err := n.srv.Drain()
	n.l.close()
	return err
}

// clusterWorkers names the cluster's worker nodes.
var clusterWorkers = []string{"w1", "w2"}

// clusterDirs are one cluster's store directories.
type clusterDirs struct {
	coord   string
	workers map[string]string
}

func newClusterDirs(root string) clusterDirs {
	d := clusterDirs{coord: filepath.Join(root, "coord"), workers: map[string]string{}}
	for _, w := range clusterWorkers {
		d.workers[w] = filepath.Join(root, w)
	}
	return d
}

// clusterNode is a coordinator and its workers, each on its own
// listener, with censerved's coordinator and worker defaults at
// replication 2.
type clusterNode struct {
	srv     *serve.Server
	workers []*cluster.Worker
	ls      []*listener // coordinator first
}

func startCluster(dirs clusterDirs, reg *obs.Registry) (*clusterNode, error) {
	n := &clusterNode{}
	// Listen first: the coordinator's peer table needs the worker URLs
	// and the workers need the coordinator's.
	for i := 0; i <= len(clusterWorkers); i++ {
		l, err := listen()
		if err != nil {
			n.closeListeners()
			return nil, err
		}
		n.ls = append(n.ls, l)
	}
	peers := map[string]string{}
	for i, name := range clusterWorkers {
		peers[name] = n.ls[i+1].url()
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			NodeID:         name,
			CoordinatorURL: n.ls[0].url(),
			StoreDir:       dirs.workers[name],
			Obs:            reg,
		})
		if err != nil {
			n.closeListeners()
			return nil, err
		}
		n.workers = append(n.workers, w)
	}
	srv, _, h, err := cluster.NewCoordinatorNode(serveOptions(dirs.coord, reg),
		cluster.CoordinatorOptions{Peers: peers, Replication: 2})
	if err != nil {
		n.closeListeners()
		return nil, err
	}
	n.srv = srv
	n.ls[0].serve(h)
	for i, w := range n.workers {
		n.ls[i+1].serve(w.Handler())
		w.Start()
	}
	return n, nil
}

func (n *clusterNode) url() string { return n.ls[0].url() }

func (n *clusterNode) closeListeners() {
	for _, l := range n.ls {
		if l.hs.Handler == nil {
			l.ln.Close()
			continue
		}
		l.close()
	}
}

// stop drains in censerved's order: the coordinator first (it releases
// the workers' long-polls and sweeps), then each worker.
func (n *clusterNode) stop() error {
	err := n.srv.Drain()
	for _, w := range n.workers {
		err = errors.Join(err, w.Drain())
	}
	n.closeListeners()
	return err
}
