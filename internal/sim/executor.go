package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// executor is the fixed worker pool behind sharded tick execution. Work is
// partitioned by a shardPlan (locality groups, or strided for the legacy
// placement), so the assignment never depends on scheduling. Workers are
// spawned for the duration of one engine run and stopped on return, so an
// idle engine holds no goroutines.
//
// Dispatch protocol: one dispatch covers a whole edge. The main goroutine
// publishes the job parameters and advances the even dispatch epoch (workers
// that spun out park on the cond; the epoch re-check under the lock closes
// the missed-wakeup window). Every shard — main runs shard 0 in place — then
// executes the edge's eval phase over its plan slice, crosses the internal
// phase barrier, and commits its own ports, fusing what used to be two
// dispatches (tick/eval + port-commit) into one epoch. Main joins on an
// atomic completion counter with a bounded spin before parking.
//
// Stopping is encoded in the same epoch word: dispatches add 2, stop adds 1,
// so a worker observes "stopped" and "new job" as one atomic read — there is
// no window between separate epoch and stop-flag loads for a shutdown to
// slip into (the race the old two-variable protocol had).
type executor struct {
	n int // shard count (worker goroutines = n-1, main runs shard 0)

	mu   sync.Mutex
	cond *sync.Cond

	// epoch is the dispatch clock: even while running (each dispatch adds
	// 2), odd forever once stopped (stop adds 1).
	epoch atomic.Int64

	// Phase barrier between the eval and commit halves of a fused edge:
	// a generation-counter combining barrier. The last arriver resets the
	// count and advances the generation; the rest spin briefly on the
	// generation before parking on gcond.
	arrived atomic.Int64
	gen     atomic.Int64
	gmu     sync.Mutex
	gcond   *sync.Cond

	// Join: workers count themselves done; main spins briefly, then
	// publishes parked and waits on dcond. The worker that completes the
	// epoch re-checks parked after its done increment (both seq-cst, so one
	// side always sees the other — no lost wakeup).
	done   atomic.Int64
	parked atomic.Bool
	dmu    sync.Mutex
	dcond  *sync.Cond

	// Job parameters, written by main before the epoch bump (the seq-cst
	// epoch store orders them ahead of any worker's epoch load).
	mode   int
	clk    *Clock
	plan   *shardPlan
	now    Cycle
	foldFn func(shard, shards int)

	// Per-shard edge results, index = shard, folded by main after the join.
	// The active set and the timers belong to the coordinator: a shard only
	// reads the set, and buffers what it would change — the components that
	// went to sleep (with the wake cycle each reported) and the ports whose
	// commit has a consumer (woken) or a producer (freed) to wake — for main
	// to apply, sleeps before wakes, which is the order a serial edge produces
	// them in.
	walks []edgeWalk
	woken [][]*portHeader
	freed [][]*portHeader
}

const (
	jobTick = iota // full path: tick every component of the shard, then commit
	jobEval        // fast path: poll the shard's awake components, then commit
	jobFold        // run foldFn(shard, n): parallel stats folding, no ports
)

// executorSpin is how many polls a worker burns before parking on a cond
// var (dispatch epoch, phase barrier, and main's join alike). Edges arrive
// back to back while a clock is busy, so a short spin usually catches the
// next transition without a futex round trip.
const executorSpin = 256

func newExecutor(n int) *executor {
	ex := &executor{n: n, walks: make([]edgeWalk, n), woken: make([][]*portHeader, n), freed: make([][]*portHeader, n)}
	ex.cond = sync.NewCond(&ex.mu)
	ex.gcond = sync.NewCond(&ex.gmu)
	ex.dcond = sync.NewCond(&ex.dmu)
	for k := 1; k < n; k++ {
		go ex.worker(k)
	}
	return ex
}

func (ex *executor) worker(shard int) {
	var last int64
	for {
		e := ex.await(last)
		if e&1 == 1 {
			return
		}
		last = e
		ex.exec(shard)
		ex.finishShard()
	}
}

// await blocks until the epoch moves past last and returns the new value;
// an odd epoch means the executor has been stopped.
func (ex *executor) await(last int64) int64 {
	for i := 0; i < executorSpin; i++ {
		if e := ex.epoch.Load(); e != last {
			return e
		}
		runtime.Gosched()
	}
	ex.mu.Lock()
	e := ex.epoch.Load()
	for e == last {
		ex.cond.Wait()
		e = ex.epoch.Load()
	}
	ex.mu.Unlock()
	return e
}

// finishShard counts this shard's epoch complete and wakes main if it
// parked. done.Add and parked.Load are both seq-cst, as are main's
// parked.Store and done.Load: whichever side runs second sees the other, so
// either main never parks or the completing worker takes dmu (which main
// holds across its recheck) and broadcasts.
func (ex *executor) finishShard() {
	if ex.done.Add(1) >= int64(ex.n-1) && ex.parked.Load() {
		ex.dmu.Lock()
		ex.dcond.Broadcast()
		ex.dmu.Unlock()
	}
}

// join blocks main until every worker finished the current epoch.
func (ex *executor) join() {
	target := int64(ex.n - 1)
	for i := 0; i < executorSpin; i++ {
		if ex.done.Load() >= target {
			return
		}
		runtime.Gosched()
	}
	ex.parked.Store(true)
	ex.dmu.Lock()
	for ex.done.Load() < target {
		ex.dcond.Wait()
	}
	ex.dmu.Unlock()
	ex.parked.Store(false)
}

// phaseBarrier separates the eval and commit phases of a fused edge: no
// shard may commit ports until every shard has finished evaluating, because
// eval reads committed port state that commit overwrites. All n shards
// (main included) pass through it once per tick/eval dispatch.
func (ex *executor) phaseBarrier() {
	g := ex.gen.Load()
	if ex.arrived.Add(1) == int64(ex.n) {
		// Last arriver: reset for the next barrier, then release. The reset
		// happens-before any next-barrier arrival, which requires the next
		// dispatch, which requires this epoch's join.
		ex.arrived.Store(0)
		ex.gmu.Lock()
		ex.gen.Add(1)
		ex.gcond.Broadcast()
		ex.gmu.Unlock()
		return
	}
	for i := 0; i < executorSpin; i++ {
		if ex.gen.Load() != g {
			return
		}
		runtime.Gosched()
	}
	ex.gmu.Lock()
	for ex.gen.Load() == g {
		ex.gcond.Wait()
	}
	ex.gmu.Unlock()
}

// dispatch runs one job across all shards and returns after every shard has
// finished. Main executes shard 0 in place.
func (ex *executor) dispatch(mode int, c *Clock, plan *shardPlan, now Cycle) {
	ex.mode, ex.clk, ex.plan, ex.now = mode, c, plan, now
	ex.done.Store(0)
	ex.mu.Lock()
	ex.epoch.Add(2)
	ex.cond.Broadcast()
	ex.mu.Unlock()
	ex.exec(0)
	ex.join()
}

// exec runs the current job for one shard. During the eval half a shard only
// reads committed port state and the active set, and writes component-private
// state plus its own ports' staged slices; after the phase barrier each port
// is committed by exactly one shard. No two shards ever touch the same memory
// in a phase.
func (ex *executor) exec(shard int) {
	c, plan, now := ex.clk, ex.plan, ex.now
	switch ex.mode {
	case jobTick:
		for _, i := range plan.comps[shard] {
			c.comps[i].Tick(now)
		}
		w := &ex.walks[shard]
		w.ticked, w.polled, w.slept = len(plan.comps[shard]), 0, w.slept[:0]
	case jobEval:
		ex.walks[shard].set(c, plan.masks[shard], now)
	case jobFold:
		ex.foldFn(shard, ex.n)
		return
	}
	ex.phaseBarrier()
	woken, freed := ex.woken[shard][:0], ex.freed[shard][:0]
	for _, i := range plan.ports[shard] {
		h := c.ports[i]
		if h.commit() && h.wclk != nil {
			woken = append(woken, h)
		}
		if h.relented() {
			freed = append(freed, h)
		}
	}
	ex.woken[shard], ex.freed[shard] = woken, freed
}

// tickEdge runs one edge sharded — every component (fast off) or the awake
// ones — with the ports committed in the same dispatch after the phase
// barrier, then folds the shards' buffered sleeps into the active set; the
// wakes their commits owe follow in wakeCommitted. The tick total is a sum
// and set updates commute, so the fold is independent of shard count and
// completion order.
func (ex *executor) tickEdge(c *Clock, plan *shardPlan, now Cycle, fast bool) int {
	mode := jobTick
	if fast {
		mode = jobEval
	}
	ex.dispatch(mode, c, plan, now)
	ticked := 0
	for k := 0; k < ex.n; k++ {
		ticked += ex.walks[k].ticked
		c.stats.Polls += int64(ex.walks[k].polled)
		c.fileSleeps(ex.walks[k].slept, now)
	}
	return ticked
}

// wakeCommitted raises the wakes the shards' port commits buffered on the
// edge tickEdge just ran: the coordinator's half of the barrier, after the
// clock's idle verdict as in a serial edge.
func (ex *executor) wakeCommitted() {
	for k := 0; k < ex.n; k++ {
		for _, h := range ex.woken[k] {
			h.wakeConsumer()
		}
		for _, h := range ex.freed[k] {
			h.wakeProducer()
		}
	}
}

// fold runs f once per shard across the pool (main runs shard 0). f's shard
// invocations must touch disjoint state; used for parallel stats folding
// from barrier tasks, where the pool is otherwise idle.
func (ex *executor) fold(f func(shard, shards int)) {
	ex.foldFn = f
	ex.dispatch(jobFold, nil, nil, 0)
	ex.foldFn = nil
}

// stop terminates the worker goroutines by making the epoch odd. Must not be
// called concurrently with dispatch.
func (ex *executor) stop() {
	ex.mu.Lock()
	ex.epoch.Add(1)
	ex.cond.Broadcast()
	ex.mu.Unlock()
}
