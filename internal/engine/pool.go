package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"gsim/internal/faultpoint"
)

// workerPool is the persistent worker-pool and level-barrier scaffolding
// shared by FullCycle and Activity. It owns the goroutines, the per-cycle
// start/done handshake, the atomic level countdown between barriers, and the
// deterministic idempotent Close — keeping the two engines' synchronization
// behavior from diverging.
//
// Each cycle() runs every worker through levels 0..levels-1: a worker calls
// run(w, lv) for its share of level lv, then waits at the barrier until the
// last worker through opens the next level. run must only touch state that
// is private to (w, lv) or published by strictly earlier levels; the barrier
// atomics provide the happens-before edges.
//
// One worker has no one to wait for: the pool starts no goroutine, cycle()
// runs the levels inline on the calling goroutine through the same safeRun
// (so panic containment and the PoolPanic fault point behave as they do with
// many workers), and Close has nothing to stop.
type workerPool struct {
	threads int
	levels  int
	run     func(w, lv int)

	wg        sync.WaitGroup
	startCh   []chan struct{} // nil with one worker
	doneCh    chan struct{}
	level     atomic.Int32
	pending   atomic.Int32
	closeOnce sync.Once

	// A panic in a worker goroutine would kill the whole process (recover
	// only works on the panicking goroutine), taking every session down with
	// the one that hit a bad kernel. Instead each worker recovers, records
	// the first panic here, and keeps honoring the barrier protocol so the
	// cycle completes; cycle() then re-raises the panic on the calling
	// goroutine, where the session layer can contain it.
	panicMu  sync.Mutex
	panicVal error
}

// newWorkerPool starts threads persistent workers executing run; with one
// worker it starts none.
func newWorkerPool(threads, levels int, run func(w, lv int)) *workerPool {
	p := &workerPool{threads: threads, levels: levels, run: run}
	if threads == 1 {
		return p
	}
	p.startCh = make([]chan struct{}, threads)
	p.doneCh = make(chan struct{})
	p.wg.Add(threads)
	for w := 0; w < threads; w++ {
		p.startCh[w] = make(chan struct{}, 1)
		go p.loop(w)
	}
	return p
}

// loop runs one worker until its start channel is closed.
func (p *workerPool) loop(w int) {
	defer p.wg.Done()
	for range p.startCh[w] {
		for lv := 0; lv < p.levels; lv++ {
			// Wait for the level to open. Yield while spinning: worker counts
			// routinely exceed core counts (the experiments sweep thread
			// counts the way the paper does), and a pure spin then starves
			// the workers that still hold work.
			for p.level.Load() < int32(lv) {
				runtime.Gosched()
			}
			p.safeRun(w, lv)
			if p.pending.Add(-1) == 0 {
				// Last worker out resets the countdown and opens the next level.
				p.pending.Store(int32(p.threads))
				p.level.Add(1)
			}
		}
		p.doneCh <- struct{}{}
	}
}

// safeRun executes run(w, lv) with panic containment: a panicking worker
// records the failure (first panic wins) and returns normally, so the level
// countdown and barrier handshake still complete and the other workers and
// the coordinating goroutine are never wedged.
func (p *workerPool) safeRun(w, lv int) {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicVal == nil {
				p.panicVal = fmt.Errorf("engine: worker %d panicked at level %d: %v\n%s", w, lv, r, debug.Stack())
			}
			p.panicMu.Unlock()
		}
	}()
	if faultpoint.Hit(faultpoint.PoolPanic) {
		panic("faultpoint: injected worker panic")
	}
	p.run(w, lv)
}

// cycle runs one full sweep: all workers through all levels, returning after
// every worker has parked again. A worker panic during the sweep is re-raised
// here, on the calling goroutine — the machine state for this cycle is
// indeterminate (the panicking worker's share is incomplete), but the pool's
// synchronization state is intact: the caller may Close it, and isolation
// layers above (server sessions) recover and poison only their own session.
func (p *workerPool) cycle() {
	if p.startCh == nil {
		for lv := 0; lv < p.levels; lv++ {
			p.safeRun(0, lv)
		}
	} else {
		p.level.Store(0)
		p.pending.Store(int32(p.threads))
		for _, ch := range p.startCh {
			ch <- struct{}{}
		}
		for range p.startCh {
			<-p.doneCh
		}
	}
	// Every worker has parked (or the one worker is this goroutine), and each
	// done receive orders that worker's panicVal write before this read.
	if pv := p.panicVal; pv != nil {
		p.panicVal = nil
		panic(pv)
	}
}

// Close shuts down the worker goroutines and blocks until every one has
// exited. It must not be called concurrently with cycle; calling it more
// than once is safe.
func (p *workerPool) Close() {
	p.closeOnce.Do(func() {
		for _, ch := range p.startCh {
			close(ch)
		}
		p.wg.Wait()
	})
}
