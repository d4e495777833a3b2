package distsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// errClusterDown is what a Loopback worker's dial fails with once the
// coordinator has failed: fatal, so the worker returns instead of
// parking for a restart that cannot come.
var errClusterDown = errors.New("distsim: the in-process coordinator is gone")

// Loopback runs a whole cluster in this process: it listens on a
// loopback TCP port, starts every worker against it, serves c to
// completion and waits for the workers. wrap, when non-nil, is handed
// the listener before anything dials it and returns the one c serves
// on — the place to put a fault injector between the two sides, and
// (the address being known there) to give workers a Dial of their own.
//
// The listener goes when Serve returns, as it would with a coordinator
// process: a worker still waiting for a lost bye finds nobody to dial
// and gives up. When Serve failed, further dials fail fatally, so the
// workers give up instead of parking. The result joins Serve's error
// and every worker's.
func Loopback(c *Coordinator, workers []*Worker, wrap func(net.Listener) net.Listener) error {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := base.Addr().String()
	return cluster(c, workers, base, func() (net.Conn, error) { return net.Dial("tcp", addr) }, wrap,
		func(f func()) { go f() })
}

// cluster is Loopback on any listener: dial connects a worker that has
// no Dial of its own to base, and spawn starts the coordinator's
// goroutine, which starts every worker's before it serves.
func cluster(c *Coordinator, workers []*Worker, base net.Listener, dial func() (net.Conn, error),
	wrap func(net.Listener) net.Listener, spawn func(func())) error {
	defer base.Close()
	ln := base
	if wrap != nil {
		ln = wrap(base)
	}

	var down atomic.Bool
	errs := make([]error, 1+len(workers))
	var wg sync.WaitGroup
	wg.Add(1 + len(workers))
	spawn(func() {
		defer wg.Done()
		for i, w := range workers {
			own := w.Dial
			if own == nil {
				own = dial
			}
			w.Dial = func() (net.Conn, error) {
				if down.Load() {
					return nil, &fatalError{errClusterDown}
				}
				return own()
			}
			spawn(func() {
				defer wg.Done()
				if err := w.Run(""); err != nil && !errors.Is(err, errClusterDown) {
					errs[1+i] = fmt.Errorf("worker %d: %w", i, err)
				}
			})
		}
		errs[0] = c.Serve(ln, len(workers))
		down.Store(errs[0] != nil)
		base.Close()
	})
	wg.Wait()
	return errors.Join(errs...)
}
