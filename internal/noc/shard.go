package noc

// Sharded cycle execution: deterministic intra-run parallelism.
//
// EnableSharding(K) partitions the mesh into K contiguous spatial
// shards (node-id ranges) and switches Network.Step to a sequence of
// phase-barriered parallel stages on a persistent worker pool. Every
// shared mutation is either proven shard-local, staged in per-shard
// buffers that a serial merge flushes in shard order, or kept in a
// serial sub-phase — so sharded output is byte-identical to the serial
// step for every scheme, traffic pattern and fault spec. The full
// argument (phase diagram, merge rules, serial-fallback conditions)
// lives in DESIGN.md §8; the inline comments here carry only the
// load-bearing invariants.
//
// The same file implements idle fast-forward: when the whole system is
// provably quiescent, Run/Drain jump Cycle straight to the next
// scheduled event instead of spinning no-op cycles. Skips are exact —
// a cycle is only skipped when executing it would change nothing but
// the cycle counter (and the zero-energy window samples, which
// Energy.SkipIdle replays in O(1)).

import (
	"runtime"
	"sync"
	"sync/atomic"

	"seec/internal/stats"
	"seec/internal/trace"
)

// ParallelSafeVA is implemented by VA policies whose Select and
// SelectInject read only the router/NIC they are invoked on and draw no
// RNG. Only such policies may run VC allocation inside the parallel
// router stage; any other policy (including policies that do not
// implement the interface) gets a serial VA pass in router-id order,
// which preserves both the global RNG draw sequence and any
// cross-router reads (e.g. TFC token counts) exactly as the serial
// step ordered them.
type ParallelSafeVA interface {
	VAParallelSafe() bool
}

// VAParallelSafe reports whether the default policy may allocate VCs
// concurrently across shards. True only for the deterministic
// dimension-ordered routings: XY/YX draw no RNG and read only the
// local router (the fault-degradation fallback included). The adaptive
// orderings break ties via the shared network RNG, so they must keep
// the serial draw order.
func (d DefaultVA) VAParallelSafe() bool {
	return d.Kind == RoutingXY || d.Kind == RoutingYX
}

// ConcurrentGenerator is implemented by traffic sources whose Generate
// may be invoked concurrently for different nodes. The contract:
// Generate(cycle, node) reads only per-node generator state and state
// that phase A link delivery never mutates (its own NIC's injection
// queues are fine; router buffers are not), and the returned slice
// stays valid until the next Generate call for the same node.
type ConcurrentGenerator interface {
	ConcurrentGenerate() bool
}

// ConcurrentDeliverer is implemented by traffic sinks whose Deliver may
// be invoked concurrently for different nodes (it must not mutate state
// shared across nodes). Open-loop synthetic sinks qualify; closed-loop
// protocol engines generally do not and are consumed serially.
type ConcurrentDeliverer interface {
	ConcurrentDeliver() bool
}

// IdleReporter is implemented by traffic sources that can promise
// Generate will return no packets and draw no RNG until external state
// changes (e.g. a paused or zero-rate synthetic source). Required for
// idle fast-forward while a traffic source is installed.
type IdleReporter interface {
	Idle() bool
}

// QuiescentReporter is implemented by schemes that can promise their
// PreRouter/PostRouter hooks are no-ops while the network holds no
// packets. Schemes with per-cycle background activity (SEEC's seeker
// circulation, SPIN counters) return false; schemes that do not
// implement the interface are conservatively treated as never
// quiescent, so idle fast-forward stays off for them.
type QuiescentReporter interface {
	Quiescent() bool
}

// stallRec and linkFlitRec are staged Metrics emissions; the merge
// replays them in shard order. Both Metrics counters are per-window
// sums, so replay order inside a cycle cannot change the CSVs.
type stallRec struct {
	node  int32
	cause trace.StallCause
}

type linkFlitRec struct {
	node int32
	dir  int8
}

// shardState is the per-shard execution context: the shard's slice of
// the mesh plus every staging buffer the parallel stages write instead
// of the shared network state.
type shardState struct {
	id      int
	lo, hi  int // node-id range [lo, hi)
	routers []*Router
	nics    []*NIC

	// Staged link registrations, split by the sub-phase that produced
	// them. The merge concatenates each category across shards in shard
	// order, which reproduces the serial active-list order exactly:
	// serial phase B appends all NIC injection sends (NIC-id order, =
	// dataInj shard-major) and then all router sends (router-id order,
	// = dataRtr shard-major); credits likewise (router credits from
	// sendFlit, then consumption credits from the NICs).
	dataInj    []*DataLink
	dataRtr    []*DataLink
	creditRtr  []*CreditLink
	creditCons []*CreditLink

	// data/credit are the active append targets while a stage runs;
	// link.Send routes through them (via sendSh) when the network is in
	// a parallel stage. The stage functions point them at the category
	// list for the current sub-phase and write them back after (appends
	// may reallocate).
	data   []*DataLink
	credit []*CreditLink

	// specs[i] holds node lo+i's Generate result from the phase A
	// parallel stage, enqueued serially in node order afterwards.
	specs [][]PacketSpec

	// Counter deltas and monotone flags, flushed by mergeShards.
	bufferReads   int64
	bufferWrites  int64
	dataHops      int64
	inFlightDelta int
	progress      bool
	consumed      bool

	// freePkts stages recycled packets; merged in shard order the
	// concatenation is exactly NIC-id order, so Enqueue reuses the same
	// pointers in the same order as the serial step.
	freePkts []*Packet

	// records stages Collector.Record calls from parallel ejection
	// deposits; flushed in shard order right after phase A.
	records []stats.PacketRecord

	stalls    []stallRec
	linkFlits []linkFlitRec
}

// shardPool is the persistent worker pool: K-1 worker goroutines plus
// the coordinating goroutine each execute one shard of every stage.
// Stage hand-off is a published sequence number (spin, then condvar),
// completion is an atomic countdown (spin, then a second condvar) — no
// per-cycle goroutine spawns and no channel traffic on the hot path.
type shardPool struct {
	workers int // == shard count; workers-1 goroutines

	stage func(int) // stage under execution; nil between stages / poison
	seq   atomic.Uint64
	mu    sync.Mutex
	cond  *sync.Cond
	seqMu uint64 // mirror of seq under mu, for the condvar slow path

	remaining atomic.Int64
	doneMu    sync.Mutex
	doneCond  *sync.Cond
	doneSeq   uint64 // completed-stage count

	panicMu  sync.Mutex
	panicked any

	stopped bool
}

func newShardPool(workers int) *shardPool {
	p := &shardPool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.doneCond = sync.NewCond(&p.doneMu)
	for i := 1; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// spinIters bounds the busy-wait at each barrier before falling back to
// a condvar sleep. Stages are microseconds long, so the spin almost
// always wins; the fallback only matters on oversubscribed machines.
const spinIters = 4096

func (p *shardPool) worker(shard int) {
	for gen := uint64(1); ; gen++ {
		p.awaitStage(gen)
		p.mu.Lock()
		fn := p.stage
		p.mu.Unlock()
		if fn == nil {
			return
		}
		p.exec(fn, shard)
	}
}

// awaitStage blocks until stage generation gen has been published.
func (p *shardPool) awaitStage(gen uint64) {
	for spin := 0; spin < spinIters; spin++ {
		if p.seq.Load() >= gen {
			return
		}
		if spin%128 == 127 {
			runtime.Gosched()
		}
	}
	p.mu.Lock()
	for p.seqMu < gen {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// exec runs one shard of the current stage, capturing panics (the
// coordinator rethrows the first one) and signalling completion.
func (p *shardPool) exec(fn func(int), shard int) {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicked == nil {
				p.panicked = r
			}
			p.panicMu.Unlock()
		}
		if p.remaining.Add(-1) == 0 {
			p.doneMu.Lock()
			p.doneSeq++
			p.doneCond.Broadcast()
			p.doneMu.Unlock()
		}
	}()
	fn(shard)
}

// run executes fn(0..workers-1) across the pool and returns when every
// shard has finished. The calling goroutine executes shard 0. Stages
// run strictly one at a time; a panic in any shard is re-raised here
// after the barrier (so the network is never left mid-stage with
// workers running).
func (p *shardPool) run(fn func(int)) {
	if p.stopped {
		panic("noc: shardPool.run after stop")
	}
	p.remaining.Store(int64(p.workers))
	p.mu.Lock()
	p.stage = fn
	p.seqMu++
	gen := p.seqMu
	p.mu.Unlock()
	p.seq.Store(gen)
	p.cond.Broadcast()

	p.exec(fn, 0)

	for spin := 0; spin < spinIters; spin++ {
		if p.remaining.Load() == 0 {
			break
		}
		if spin%128 == 127 {
			runtime.Gosched()
		}
	}
	if p.remaining.Load() != 0 {
		p.doneMu.Lock()
		for p.doneSeq < gen {
			p.doneCond.Wait()
		}
		p.doneMu.Unlock()
	}
	// Drop the stage reference between cycles: idle workers must not
	// keep the Network reachable, so a network discarded without
	// StopWorkers strands only its parked workers, not its state.
	p.mu.Lock()
	p.stage = nil
	p.mu.Unlock()
	if p.panicked != nil {
		r := p.panicked
		p.panicked = nil
		panic(r)
	}
}

// stop publishes a nil stage, which every worker interprets as poison.
func (p *shardPool) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.mu.Lock()
	p.stage = nil
	p.seqMu++
	gen := p.seqMu
	p.mu.Unlock()
	p.seq.Store(gen)
	p.cond.Broadcast()
}

// EnableSharding partitions the mesh into k contiguous shards and
// switches Step to the phase-barriered parallel execution path. k is
// clamped to [1, nodes]; k <= 1 restores the serial step. Results are
// byte-identical at every k. Call before running cycles (it is cheap
// but not safe concurrently with Step).
func (n *Network) EnableSharding(k int) {
	n.StopWorkers()
	nodes := len(n.Routers)
	if k > nodes {
		k = nodes
	}
	if k <= 1 {
		n.shards = nil
		n.vaParallel = false
		for _, r := range n.Routers {
			r.shard = nil
		}
		for _, nic := range n.NICs {
			nic.shard = nil
		}
		for _, l := range n.dataLinks {
			l.sendSh, l.sinkSh = nil, nil
		}
		for _, l := range n.creditLinks {
			l.sendSh, l.sinkSh = nil, nil
		}
		return
	}
	n.shards = make([]*shardState, k)
	byNode := make([]*shardState, nodes)
	for s := 0; s < k; s++ {
		lo, hi := s*nodes/k, (s+1)*nodes/k
		sh := &shardState{
			id: s, lo: lo, hi: hi,
			routers: n.Routers[lo:hi],
			nics:    n.NICs[lo:hi],
			specs:   make([][]PacketSpec, hi-lo),
		}
		n.shards[s] = sh
		for i := lo; i < hi; i++ {
			byNode[i] = sh
			n.Routers[i].shard = sh
			n.NICs[i].shard = sh
		}
	}
	// Wire every link with its sender shard (whose stage stages the
	// Send) and sink shard (whose phase A delivers it). Mirrors the
	// wiring in New: r.In[d].CreditOut (d cardinal) was created while
	// visiting the neighbor in direction d and applies credits at that
	// neighbor's output port facing us.
	for id, r := range n.Routers {
		sh := byNode[id]
		for d := North; d <= West; d++ {
			if out := r.Out[d]; out != nil && out.Link != nil {
				out.Link.sendSh = sh
				out.Link.sinkSh = byNode[out.DownRouter]
			}
			if in := r.In[d]; in != nil && in.CreditOut != nil {
				in.CreditOut.sendSh = sh
				in.CreditOut.sinkSh = byNode[n.Cfg.Neighbor(id, d)]
			}
		}
		nic := n.NICs[id]
		nic.InjLink.sendSh, nic.InjLink.sinkSh = sh, sh
		r.Out[Local].Link.sendSh, r.Out[Local].Link.sinkSh = sh, sh
		r.In[Local].CreditOut.sendSh, r.In[Local].CreditOut.sinkSh = sh, sh
		nic.EjCreditOut.sendSh, nic.EjCreditOut.sinkSh = sh, sh
	}
	// Pre-size every staging buffer to its per-cycle worst case so the
	// parallel stages never allocate: each link sends at most once per
	// cycle, and each ejection VC ejects/consumes at most one packet.
	dataN := make([]int, k)
	credN := make([]int, k)
	for _, l := range n.dataLinks {
		dataN[l.sendSh.id]++
	}
	for _, l := range n.creditLinks {
		credN[l.sendSh.id]++
	}
	ejPer := n.Cfg.Classes * n.Cfg.EjectVCsPerClass
	for s, sh := range n.shards {
		nodes := sh.hi - sh.lo
		sh.dataInj = make([]*DataLink, 0, nodes)
		sh.dataRtr = make([]*DataLink, 0, dataN[s])
		sh.creditRtr = make([]*CreditLink, 0, credN[s])
		sh.creditCons = make([]*CreditLink, 0, nodes)
		sh.records = make([]stats.PacketRecord, 0, nodes*ejPer)
		sh.freePkts = make([]*Packet, 0, nodes*ejPer)
	}
	n.vaParallel = false
	if ps, ok := n.VA.(ParallelSafeVA); ok {
		n.vaParallel = ps.VAParallelSafe()
	}
	// Bind the stage methods once; storing them in fields keeps the
	// per-cycle pool.run calls allocation-free.
	n.fnDeliver = n.stageDeliver
	n.fnDeliverCredits = n.stageDeliverCredits
	n.fnRouter = n.stageRouter
}

// Shards returns the configured shard count (1 = serial execution).
func (n *Network) Shards() int {
	if n.shards == nil {
		return 1
	}
	return len(n.shards)
}

// StopWorkers terminates the sharded worker pool, if one is running.
// Safe to call at any point between cycles and more than once; the next
// sharded Step transparently starts a fresh pool. Call it when a
// sharded network is done: nothing else stops the workers.
func (n *Network) StopWorkers() {
	if n.pool != nil {
		n.pool.stop()
		n.pool = nil
	}
}

// SetFastForward toggles idle fast-forward in Run and Drain (default
// on). Skips are exact, so this is a debugging aid, not a semantics
// switch.
func (n *Network) SetFastForward(on bool) { n.noFastForward = !on }

// stepSharded is the phase-barriered parallel Step. Phase ordering and
// emissions reproduce stepSerial exactly; see DESIGN.md §8 for the
// determinism argument.
func (n *Network) stepSharded() {
	if n.Tracer != nil {
		// Flit-level tracing observes intra-cycle event order, which the
		// stage restructuring (all-VA before all-SA, shard-major
		// deposits) legitimately permutes. Traced runs take the serial
		// step; results are byte-identical either way, the trace is
		// simply in serial order.
		n.stepSerial()
		return
	}
	if n.pool == nil {
		if runtime.GOMAXPROCS(0) <= 1 {
			// A worker pool (and the staged execution that feeds it) only
			// pays for itself when the process has CPUs to run it on.
			// Single-CPU processes take the serial step: byte-identity at
			// every shard count is the file's load-bearing contract, so
			// the substitution is invisible in every output — including
			// checkpoints, which never serialize shard staging. The check
			// repeats while no pool exists, so raising GOMAXPROCS
			// mid-run starts parallel execution on the next Step.
			n.stepSerial()
			return
		}
		n.pool = newShardPool(len(n.shards))
	}
	n.Cycle++
	faulted := n.Faults != nil

	// Phase A: deliver everything staged in the previous cycle,
	// partitioned by sink shard (receiveFlit, deposit and applyCredit
	// touch only sink-side state). Under faults the data pass stays
	// serial: per-flit fault draws consume the injector RNG in active
	// list order, and arrival verdicts mutate the injector. Credit
	// application is pure arithmetic on the sink, so it stays parallel
	// either way. Traffic generation joins the fault-free stage when
	// the source allows it (per-node RNG streams; reads nothing phase A
	// mutates) — serial generation runs later, in its legacy slot.
	data := n.activeData
	n.activeData = n.spareData[:0]
	n.stageData = data
	n.genStage = false
	if t := n.Traffic; t != nil && !faulted {
		if cg, ok := t.(ConcurrentGenerator); ok && cg.ConcurrentGenerate() {
			n.genStage = true
		}
	}
	var credits []*CreditLink
	if faulted {
		for _, l := range data {
			l.deliver()
		}
		// Snapshot credits only now: a tail-flit fault verdict during the
		// data pass discards the packet and sends its ejection credits on
		// the spot (discardEjected), and the serial step delivers those in
		// this same cycle's credit pass. Snapshotting before the data pass
		// would delay them one cycle and shift every later VC allocation.
		credits = n.activeCredit
		n.activeCredit = n.spareCredit[:0]
		n.stageCredits = credits
		n.stageParallel = true
		n.pool.run(n.fnDeliverCredits)
		n.stageParallel = false
	} else {
		credits = n.activeCredit
		n.activeCredit = n.spareCredit[:0]
		n.stageCredits = credits
		n.stageParallel = true
		n.pool.run(n.fnDeliver)
		n.stageParallel = false
	}
	n.spareData = data
	n.spareCredit = credits
	n.stageData, n.stageCredits = nil, nil
	// Flush staged ejection records in shard order. Collector.Record
	// only feeds commutative aggregates (histograms, sums, counts), so
	// the shard-major replay leaves the Collector byte-identical to the
	// serial delivery-order calls.
	for _, sh := range n.shards {
		for i := range sh.records {
			n.Collector.Record(sh.records[i])
		}
		sh.records = sh.records[:0]
	}
	if faulted {
		n.faultTick()
	}
	// Enqueue serially in node order (packet IDs, free-list pops and
	// InFlight accounting are shared); with genStage the specs were
	// produced in parallel above, otherwise Generate runs here exactly
	// as the serial step interleaves it.
	if n.Traffic != nil {
		if n.genStage {
			for _, sh := range n.shards {
				for i, specs := range sh.specs {
					node := sh.lo + i
					for _, spec := range specs {
						n.NICs[node].Enqueue(spec)
					}
					sh.specs[i] = nil
				}
			}
		} else {
			for node := range n.NICs {
				for _, spec := range n.Traffic.Generate(n.Cycle, node) {
					n.NICs[node].Enqueue(spec)
				}
			}
		}
	}
	for _, o := range n.ffMarked {
		o.FFReserved = false
	}
	n.ffMarked = n.ffMarked[:0]
	if n.Scheme != nil {
		n.Scheme.PreRouter(n)
	}
	if !n.Frozen {
		n.refreshVAFast()
		// Injection parallelizes only when VA does and no injector is
		// installed (SelectInject may read cross-router state for
		// non-parallel-safe policies; the fault injector's tracking
		// tables are shared). The serial loop runs in its legacy slot —
		// before any router — and stages sends directly on the global
		// active list, which the merge appends router sends after,
		// reproducing the serial order.
		injPar := n.vaParallel && !faulted
		if !injPar {
			for _, nic := range n.NICs {
				if nic.cur != nil || nic.backlog > 0 {
					nic.inject()
				}
			}
		}
		if !n.vaParallel {
			// Serial VA pass in router-id order: preserves the global
			// RNG draw sequence (adaptive orderings, escape policy) and
			// cross-router Busy/credit observations (TFC tokens)
			// exactly — SA never mutates the state VA reads, so
			// all-VA-then-all-SA sees what interleaved va/sa saw.
			for _, r := range n.Routers {
				if r.occupied > 0 {
					r.va()
				}
			}
		}
		n.injStage = injPar
		n.consumeStage = n.consumeConcurrent()
		n.stageParallel = true
		n.pool.run(n.fnRouter)
		n.stageParallel = false
		if !n.consumeStage {
			for _, nic := range n.NICs {
				if nic.ejOccupied > 0 {
					nic.consume()
				}
			}
		}
		n.bumpVARound()
	} else {
		for _, nic := range n.NICs {
			if nic.ejOccupied > 0 {
				nic.consume()
			}
		}
	}
	n.mergeShards()
	if n.Scheme != nil {
		n.Scheme.PostRouter(n)
	}
	n.Energy.Tick()
	if n.Metrics != nil {
		for i, r := range n.Routers {
			n.Metrics.Occupancy(i, r.occupied)
		}
		n.Metrics.Tick()
	}
	if n.Watchdog != nil {
		n.Watchdog.check(n)
	}
}

// consumeConcurrent reports whether NIC consumption may run inside the
// parallel router stage this cycle.
func (n *Network) consumeConcurrent() bool {
	t := n.Traffic
	if t == nil {
		return true
	}
	cd, ok := t.(ConcurrentDeliverer)
	return ok && cd.ConcurrentDeliver()
}

// stageDeliver is the fault-free phase A stage: per-shard link
// delivery (data, then credits, as the serial step ordered them) plus
// optional concurrent traffic generation.
func (n *Network) stageDeliver(si int) {
	sh := n.shards[si]
	sh.data = sh.dataInj
	sh.credit = sh.creditRtr
	for _, l := range n.stageData {
		if l.sinkSh == sh {
			l.deliver()
		}
	}
	for _, l := range n.stageCredits {
		if l.sinkSh == sh {
			l.deliver()
		}
	}
	if n.genStage {
		t := n.Traffic
		for i, node := 0, sh.lo; node < sh.hi; i, node = i+1, node+1 {
			sh.specs[i] = t.Generate(n.Cycle, node)
		}
	}
	sh.dataInj = sh.data
	sh.creditRtr = sh.credit
	sh.data, sh.credit = nil, nil
}

// stageDeliverCredits is phase A's credit half, used when faults force
// the data half serial.
func (n *Network) stageDeliverCredits(si int) {
	sh := n.shards[si]
	sh.credit = sh.creditRtr
	for _, l := range n.stageCredits {
		if l.sinkSh == sh {
			l.deliver()
		}
	}
	sh.creditRtr = sh.credit
	sh.credit = nil
}

// stageRouter is the phase B parallel stage: per-shard NIC injection
// (when safe), router pipelines, and NIC consumption (when the sink
// allows it). Each sub-phase stages its link sends into the shard's
// category list so the merge can reproduce the serial active-list
// order.
func (n *Network) stageRouter(si int) {
	sh := n.shards[si]
	if n.injStage {
		sh.data = sh.dataInj
		for _, nic := range sh.nics {
			if nic.cur != nil || nic.backlog > 0 {
				nic.inject()
			}
		}
		sh.dataInj = sh.data
	}
	sh.data = sh.dataRtr
	sh.credit = sh.creditRtr
	if n.vaParallel {
		for _, r := range sh.routers {
			if r.occupied > 0 {
				r.step()
			}
		}
	} else {
		for _, r := range sh.routers {
			if r.occupied > 0 {
				r.sa()
			}
		}
	}
	sh.dataRtr = sh.data
	sh.creditRtr = sh.credit
	if n.consumeStage {
		sh.credit = sh.creditCons
		for _, nic := range sh.nics {
			if nic.ejOccupied > 0 {
				nic.consume()
			}
		}
		sh.creditCons = sh.credit
	}
	sh.data, sh.credit = nil, nil
}

// mergeShards flushes every per-shard staging buffer into the shared
// network state, category-major in shard order, leaving all shard
// buffers empty. Category-major concatenation reproduces the serial
// active-list order exactly (see shardState).
func (n *Network) mergeShards() {
	for _, sh := range n.shards {
		n.activeData = append(n.activeData, sh.dataInj...)
		sh.dataInj = sh.dataInj[:0]
	}
	for _, sh := range n.shards {
		n.activeData = append(n.activeData, sh.dataRtr...)
		sh.dataRtr = sh.dataRtr[:0]
	}
	for _, sh := range n.shards {
		n.activeCredit = append(n.activeCredit, sh.creditRtr...)
		sh.creditRtr = sh.creditRtr[:0]
	}
	for _, sh := range n.shards {
		n.activeCredit = append(n.activeCredit, sh.creditCons...)
		sh.creditCons = sh.creditCons[:0]
	}
	for _, sh := range n.shards {
		n.Energy.BufferReads += sh.bufferReads
		n.Energy.BufferWrites += sh.bufferWrites
		if sh.dataHops > 0 {
			// One batched add: cycleEnergy additions of small dyadic
			// values are float-exact, so the sum matches the serial
			// one-per-hop increments bit for bit.
			n.Energy.AddDataHops(sh.dataHops)
		}
		sh.bufferReads, sh.bufferWrites, sh.dataHops = 0, 0, 0
		n.InFlight += sh.inFlightDelta
		sh.inFlightDelta = 0
		if sh.progress {
			n.lastProgress = n.Cycle
			sh.progress = false
		}
		if sh.consumed {
			n.lastConsume = n.Cycle
			sh.consumed = false
		}
		if len(sh.freePkts) > 0 {
			n.freePkts = append(n.freePkts, sh.freePkts...)
			for i := range sh.freePkts {
				sh.freePkts[i] = nil
			}
			sh.freePkts = sh.freePkts[:0]
		}
		if m := n.Metrics; m != nil {
			for _, s := range sh.stalls {
				m.Stall(int(s.node), s.cause)
			}
			for _, lf := range sh.linkFlits {
				m.LinkFlit(int(lf.node), int(lf.dir))
			}
		}
		sh.stalls = sh.stalls[:0]
		sh.linkFlits = sh.linkFlits[:0]
	}
}

// trySkip attempts an idle fast-forward: if nothing in the system can
// change state before the next scheduled event, jump Cycle to
// min(target, next event - 1) and account the skipped cycles. Returns
// false when any component might act, leaving the caller to Step
// normally — skips are exact or they do not happen.
func (n *Network) trySkip(target int64) bool {
	if n.noFastForward || n.InFlight != 0 || n.Frozen ||
		len(n.activeData) != 0 || len(n.activeCredit) != 0 || len(n.ffMarked) != 0 ||
		n.Metrics != nil {
		return false
	}
	if n.Traffic != nil {
		ir, ok := n.Traffic.(IdleReporter)
		if !ok || !ir.Idle() {
			return false
		}
	}
	if n.Scheme != nil {
		qr, ok := n.Scheme.(QuiescentReporter)
		if !ok || !qr.Quiescent() {
			return false
		}
	}
	next := target
	if fi := n.Faults; fi != nil {
		d := fi.NextDeadline(n.Cycle)
		if d < 0 {
			if fi.Outstanding() > 0 {
				// Tracked transactions with no scheduled wake-up should
				// not exist; refuse to skip rather than silently jump
				// past a recovery.
				return false
			}
		} else if d-1 < next {
			// Stop one cycle short so the Step at cycle d runs the
			// deadline (kills and timeouts fire on exact cycle match).
			next = d - 1
		}
	}
	if next <= n.Cycle {
		return false
	}
	k := next - n.Cycle
	n.Cycle = next
	// Idle cycles are not frozen, so the serial step would have
	// advanced the VA rotation every cycle; energy would have pushed a
	// zero window sample (nothing moved and quiescent schemes burn no
	// sideband). The watchdog ignores empty networks, and the tracer
	// has nothing to record. Everything else is untouched by an idle
	// cycle by the gate above.
	n.vaRound += int(k)
	n.vaRoundMod = int((int64(n.vaRoundMod) + k) % int64(n.vaTotal))
	n.Energy.SkipIdle(k)
	return true
}

// Drain runs until the network is fully drained (no packets in flight
// and no fault-layer transactions outstanding) or max cycles have
// elapsed, fast-forwarding idle gaps (e.g. retransmission-timeout
// waits). Returns whether the network drained.
func (n *Network) Drain(max int64) bool {
	target := n.Cycle + max
	for !n.Drained() && n.Cycle < target {
		if n.trySkip(target) {
			continue
		}
		n.Step()
	}
	return n.Drained()
}
