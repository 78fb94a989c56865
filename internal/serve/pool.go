package serve

import (
	"sync"
	"sync/atomic"
)

// workerPool runs fn over the work units [0, n) once per run call, on
// persistent goroutines that claim units off an atomic counter. Callers
// make every unit's work a pure function of the unit's own state, so the
// claim order never changes results. With one worker, run calls fn in unit
// order on the calling goroutine and no goroutine exists.
type workerPool struct {
	n     int
	fn    func(unit int)
	work  []chan struct{}
	wg    sync.WaitGroup
	claim atomic.Int64
}

// newWorkerPool starts min(workers, n) goroutines (none when that is ≤ 1).
func newWorkerPool(workers, n int, fn func(unit int)) *workerPool {
	p := &workerPool{n: n, fn: fn}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return p
	}
	p.work = make([]chan struct{}, workers)
	for w := range p.work {
		ch := make(chan struct{}, 1)
		p.work[w] = ch
		go func() {
			for range ch {
				for {
					u := int(p.claim.Add(1)) - 1
					if u >= p.n {
						break
					}
					p.fn(u)
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// run processes every unit once and returns when all are done.
func (p *workerPool) run() {
	if len(p.work) == 0 {
		for u := 0; u < p.n; u++ {
			p.fn(u)
		}
		return
	}
	p.claim.Store(0)
	p.wg.Add(len(p.work))
	for _, ch := range p.work {
		ch <- struct{}{}
	}
	p.wg.Wait()
}

// close stops the goroutines. It is idempotent; the pool must not run
// afterwards.
func (p *workerPool) close() {
	for _, ch := range p.work {
		close(ch)
	}
	p.work = nil
}
