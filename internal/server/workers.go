package server

import (
	"sync"
	"sync/atomic"
)

// opWorkers runs operations on goroutines that park between requests. A
// fresh goroutine per request starts on a small stack and grows it to fit
// the op — decode, engine descent, encode — on every request: on the
// served benchmark's search-uniform workload runtime.copystack was about
// 10% of pcserve's CPU. A parked worker keeps its grown stack.
//
// At most max workers park. A call that finds none parked runs on a fresh
// goroutine, which parks afterwards only if fewer than max are parked, so
// a burst never leaves more than max goroutines behind.
type opWorkers struct {
	calls    chan *opCall // unbuffered: a send succeeds only into a parked worker
	parked   atomic.Int32
	max      int32
	quit     chan struct{}
	stopOnce sync.Once
}

func newOpWorkers(max int) *opWorkers {
	return &opWorkers{calls: make(chan *opCall), max: int32(max), quit: make(chan struct{})}
}

// run hands c to a parked worker, or to a new goroutine when none is
// parked. It never blocks.
func (p *opWorkers) run(c *opCall) {
	select {
	case p.calls <- c:
	default:
		go p.work(c)
	}
}

// work runs c, then parks for the next call until stop, or exits at once
// when max workers are parked already.
func (p *opWorkers) work(c *opCall) {
	for {
		c.run()
		if p.parked.Add(1) > p.max {
			p.parked.Add(-1)
			return
		}
		select {
		case c = <-p.calls:
			p.parked.Add(-1)
		case <-p.quit:
			p.parked.Add(-1)
			return
		}
	}
}

// stop releases the parked workers. Calls made afterwards still run, each
// on a goroutine that exits when its call is done.
func (p *opWorkers) stop() { p.stopOnce.Do(func() { close(p.quit) }) }
