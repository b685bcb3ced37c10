package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/trace"
	"github.com/treedoc/treedoc/internal/transport"
)

// The catchup workload pulls history through the transport. In set-up,
// durable archivist engines (WithLogDir, the default FsyncBatch policy)
// on Session A each write their own document's history: half the
// documents about 2k ops, caught up by op replay, and half about 20k ops,
// past the engine's 8,192-op snapshot threshold and its 16,384-op
// compaction barrier, caught up by snapshot plus suffix. Then a seeded
// schedule of fresh joiners attaches on Session B, one round of joins per
// catchupRound: each joiner catches up to its archivist, is checked
// byte for byte, and stops. Finally every archivist is stopped and
// reopened from its log, and its content checked.

const (
	catchupDocs     = 8
	catchupSmallOps = 2_000
	catchupLargeOps = 20_000
	// catchupRound is the join schedule's period: every document gets
	// one joiner per round, at a seeded offset within it.
	catchupRound = 2 * time.Second
	// joinTimeout bounds one join; a join that times out fails.
	joinTimeout = 30 * time.Second
	// slowJoinFactor marks a join as slow when it takes this many times
	// the median join.
	slowJoinFactor = 5
	// historyBatch is how many ops an archivist broadcasts at once while
	// writing its history: the engine's default batch size.
	historyBatch = 64
)

// archivist is one durable engine and the document history it holds.
type archivist struct {
	name  string
	site  treedoc.SiteID
	dir   string
	doc   *treedoc.Doc
	eng   *transport.Engine
	ops   int
	want  string // content after the history
	large bool
}

// transitKey identifies a directed answer frame between an archivist's
// Send and a joiner's Recv: the addressed joiner and the first op carried
// (zero for a snapshot frame).
type transitKey struct {
	to, site treedoc.SiteID
	seq      uint64
}

// catchupFleet is one set-up of the catchup workload.
type catchupFleet struct {
	r       *run
	hub     *transport.Hub
	sessA   *transport.Session
	sessB   *transport.Session
	arch    []*archivist
	links   linkStats
	tr      *tracker    // history stamps while writing
	writing atomic.Bool // the archivists are writing their histories
	tracing atomic.Bool // window spans are being recorded
	codec   codecProbe

	mu        sync.Mutex
	sentAt    map[transitKey]time.Time // guarded by mu
	sendNs    samples                  // guarded by mu
	transitMs samples                  // guarded by mu
	recvApply samples                  // ms, guarded by mu
	applyNs   time.Duration            // guarded by mu
	applied   int                      // guarded by mu
	batches   int                      // guarded by mu
	installMs samples                  // guarded by mu
	snapMs    samples                  // guarded by mu
	editNs    samples                  // guarded by mu
}

// archTap is the tap on the archivists' links.
type archTap struct{ c *catchupFleet }

// The history writing is observed only in a traced run (the tracker is on);
// an untraced set-up decodes no frame.
func (t archTap) active() bool {
	return t.c.tracing.Load() || (t.c.writing.Load() && t.c.tr.active())
}

func (t archTap) sent(frame []byte, start, end time.Time) {
	c := t.c
	if c.writing.Load() {
		c.tr.sent(frame, start, end)
		return
	}
	fc, err := decodeFrame(frame)
	if err != nil || fc.to == 0 {
		return
	}
	key := transitKey{to: fc.to}
	if len(fc.msgs) > 0 {
		key.site, key.seq = fc.msgs[0].Site, fc.msgs[0].Seq
	} else if !fc.snap {
		return
	}
	c.mu.Lock()
	c.sentAt[key] = end
	c.sendNs = append(c.sendNs, float64(end.Sub(start)))
	c.mu.Unlock()
}

func (t archTap) recv([]byte, time.Time) {}

// joinTap is the tap on one joiner's link.
type joinTap struct {
	c    *catchupFleet
	site treedoc.SiteID
	mu   sync.Mutex
	at   map[[2]uint64]time.Time // op (site, seq) -> Recv return; guarded by mu
}

func (t *joinTap) active() bool { return t.c.tracing.Load() }

func (t *joinTap) sent([]byte, time.Time, time.Time) {}

func (t *joinTap) recv(frame []byte, at time.Time) {
	c := t.c
	fc := c.codec.observe(frame)
	key := transitKey{to: t.site}
	if len(fc.msgs) > 0 {
		key.site, key.seq = fc.msgs[0].Site, fc.msgs[0].Seq
	}
	if len(fc.msgs) > 0 || fc.snap {
		c.mu.Lock()
		if s, ok := c.sentAt[key]; ok {
			c.transitMs = append(c.transitMs, ms(at.Sub(s)))
			delete(c.sentAt, key)
		}
		c.mu.Unlock()
	}
	t.mu.Lock()
	for _, op := range fc.msgs {
		t.at[[2]uint64{uint64(op.Site), op.Seq}] = at
	}
	t.mu.Unlock()
}

// applied records a joiner's apply batch and, when traced, each op's
// wait from link Recv to ApplyBatch entry.
func (t *joinTap) applied(ops []core.Op, start, end time.Time) {
	c := t.c
	var waits samples
	if c.tracing.Load() {
		t.mu.Lock()
		for _, op := range ops {
			k := [2]uint64{uint64(op.Site), op.Seq}
			if at, ok := t.at[k]; ok {
				waits = append(waits, ms(start.Sub(at)))
				delete(t.at, k)
			}
		}
		t.mu.Unlock()
	}
	c.mu.Lock()
	c.recvApply = append(c.recvApply, waits...)
	c.applyNs += end.Sub(start)
	c.applied += len(ops)
	c.batches++
	c.mu.Unlock()
}

func newCatchupFleet(r *run, dir string, sizes []int, tr *tracker) (*catchupFleet, error) {
	hub, err := transport.ListenHub("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: hub: %w", err)
	}
	addr := hub.Addr().String()
	c := &catchupFleet{r: r, hub: hub, sessA: transport.DialSession(addr), sessB: transport.DialSession(addr),
		tr: tr, sentAt: map[transitKey]time.Time{}}
	for i, n := range sizes {
		a := &archivist{
			name:  fmt.Sprintf("catchup-%d", i),
			site:  treedoc.SiteID(i + 1),
			dir:   filepath.Join(dir, fmt.Sprintf("arch-%d", i)),
			ops:   n,
			large: i%2 == 1,
		}
		if err := c.open(a); err != nil {
			c.close()
			return nil, err
		}
		c.arch = append(c.arch, a)
	}
	if err := c.writeHistories(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// open starts a's engine over its log directory (restoring whatever the
// log holds) and attaches it on Session A.
func (c *catchupFleet) open(a *archivist) error {
	doc, err := treedoc.New(treedoc.WithSite(a.site))
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	ap := &applier{Doc: doc, snapshotted: func(start, end time.Time) {
		c.mu.Lock()
		c.snapMs = append(c.snapMs, ms(end.Sub(start)))
		c.mu.Unlock()
	}}
	eng, err := transport.NewEngine(a.site, ap, transport.WithLogDir(a.dir))
	if err != nil {
		return fmt.Errorf("perfbench: open archivist %s: %w", a.name, err)
	}
	link, err := c.sessA.Attach(a.name)
	if err != nil {
		eng.Stop()
		return fmt.Errorf("perfbench: attach %s: %w", a.name, err)
	}
	eng.Connect(c.r.wrap(link, &c.links, archTap{c}))
	a.doc, a.eng = doc, eng
	return nil
}

// writeHistories has every archivist write its history as local edits
// broadcast through its engine, then waits until every op is stamped.
func (c *catchupFleet) writeHistories() error {
	c.writing.Store(true)
	defer c.writing.Store(false)
	for _, a := range c.arch {
		stream, err := trace.NewStream(trace.DefaultMix(), int64(a.site), a.name)
		if err != nil {
			return fmt.Errorf("perfbench: %w", err)
		}
		rep := &collabRep{doc: a.doc, stream: stream, site: a.site}
		target := a.ops
		var batch []core.Op
		sent := 0
		for sent < target {
			t0 := time.Now()
			ops := rep.edit()
			t1 := time.Now()
			c.tr.edited(a.site, ops, t0, t0, t1)
			if c.tr.active() && len(ops) > 0 {
				c.mu.Lock()
				c.editNs = append(c.editNs, float64(t1.Sub(t0))/float64(len(ops)))
				c.mu.Unlock()
			}
			batch = append(batch, ops...)
			sent += len(ops)
			// A history is a bulk import: it is broadcast in batches of
			// historyBatch ops, so the log is synced per batch and the
			// set-up time does not follow the disk's per-sync latency.
			if len(batch) >= historyBatch || sent >= target {
				if err := a.eng.Broadcast(batch...); err != nil {
					return fmt.Errorf("perfbench: %s broadcast: %w", a.name, err)
				}
				c.tr.broadcast(batch, time.Now())
				batch = batch[:0]
			}
		}
		a.ops = sent
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, a := range c.arch {
		for a.eng.Clock().Get(a.site) != uint64(a.ops) {
			if time.Now().After(deadline) {
				return fmt.Errorf("perfbench: %s stamped %d of %d ops", a.name, a.eng.Clock().Get(a.site), a.ops)
			}
			time.Sleep(5 * time.Millisecond)
		}
		a.want = a.doc.ContentString()
	}
	return nil
}

func (c *catchupFleet) close() {
	for _, a := range c.arch {
		if a.eng != nil {
			a.eng.Stop()
		}
	}
	c.sessA.Close()
	c.sessB.Close()
	c.hub.Close()
}

func (c *catchupFleet) engines() []*transport.Engine {
	out := make([]*transport.Engine, 0, len(c.arch))
	for _, a := range c.arch {
		out = append(out, a.eng)
	}
	return out
}

// joinSpec is one scheduled join.
type joinSpec struct {
	due   time.Time
	round int
	arch  *archivist
	site  treedoc.SiteID
}

// joinResult is what one join measured.
type joinResult struct {
	spec      joinSpec
	lag       time.Duration // due -> the document's join slot was free
	took      time.Duration // Attach start -> caught up
	attach    time.Duration
	snapshot  bool
	installed uint64
	err       error
}

// join attaches a fresh replica for spec's document on Session B, waits
// until it has applied the archivist's whole history, checks it and stops
// it.
func (c *catchupFleet) join(spec joinSpec) joinResult {
	res := joinResult{spec: spec}
	a := spec.arch
	doc, err := treedoc.New(treedoc.WithSite(spec.site))
	if err != nil {
		res.err = err
		return res
	}
	tap := &joinTap{c: c, site: spec.site, at: map[[2]uint64]time.Time{}}
	done := make(chan struct{})
	var once sync.Once
	target := uint64(a.ops)
	covered := func() {
		if doc.Version().Get(a.site) >= target {
			once.Do(func() { close(done) })
		}
	}
	ap := &applier{Doc: doc,
		applied: func(ops []core.Op, start, end time.Time) {
			tap.applied(ops, start, end)
			covered()
		},
		installed: func(start, end time.Time) {
			c.mu.Lock()
			c.installMs = append(c.installMs, ms(end.Sub(start)))
			c.mu.Unlock()
			covered()
		},
	}
	t0 := time.Now()
	link, err := c.sessB.Attach(a.name)
	if err != nil {
		res.err = fmt.Errorf("attach: %w", err)
		return res
	}
	res.attach = time.Since(t0)
	eng, err := transport.NewEngine(spec.site, ap)
	if err != nil {
		link.Close()
		res.err = err
		return res
	}
	eng.Connect(c.r.wrap(link, &c.links, tap))
	select {
	case <-done:
		res.took = time.Since(t0)
	case <-time.After(joinTimeout):
		res.err = fmt.Errorf("not caught up after %v", joinTimeout)
	}
	if res.err == nil {
		if got := eng.Clock().Get(a.site); got != target {
			res.err = fmt.Errorf("clock %d, archivist wrote %d", got, target)
		} else if doc.ContentString() != a.want {
			res.err = fmt.Errorf("content differs from the archivist's")
		}
	}
	res.installed = eng.SnapshotsInstalled()
	res.snapshot = res.installed > 0
	eng.Stop()
	if err := eng.Err(); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

func runCatchup(r *run) (*outcome, error) {
	o := newOutcome()
	docs, small, large, round := catchupDocs, catchupSmallOps, catchupLargeOps, catchupRound
	if r.tiny {
		docs, small, large, round = 2, 200, 9_000, 500*time.Millisecond
	}
	sizes := make([]int, docs)
	for i := range sizes {
		sizes[i] = small
		if i%2 == 1 {
			sizes[i] = large
		}
	}

	// History stamps are kept only when traced: the tracker is as large as
	// the histories.
	tr := newTracker(0, 0)
	if r.traced {
		tr = newTracker(docs, large*11/10)
		tr.on.Store(true)
	}
	var setups samples
	var c *catchupFleet
	for spent := 0.0; moreSetups(len(setups), spent); {
		if c != nil {
			c.close()
		}
		tr.reset()
		t0 := time.Now()
		var err error
		if c, err = newCatchupFleet(r, filepath.Join(r.dir, fmt.Sprintf("setup-%d", len(setups))), sizes, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	o.e2e["setup_s"] = setups.median()
	historyOps := 0
	for _, a := range c.arch {
		historyOps += a.ops
	}

	// The seeded join schedule: one join per document per round, at a
	// random offset within the round. The seed chooses only the schedule:
	// the histories are fixed, since their shape sets the per-atom costs.
	rng := rand.New(rand.NewSource(r.seed))
	start := time.Now().Add(20 * time.Millisecond)
	rounds := int(r.seconds / round)
	var specs []joinSpec
	for k := 0; k < rounds; k++ {
		for _, a := range c.arch {
			off := time.Duration(rng.Int63n(int64(round)))
			specs = append(specs, joinSpec{due: start.Add(time.Duration(k)*round + off), round: k, arch: a})
		}
	}
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].due.Before(specs[j].due) })
	for i := range specs {
		specs[i].site = treedoc.SiteID(1000 + i)
	}

	// The generator goroutine starts each join at its due time; a join
	// whose document still has a joiner attached waits for it (a Session
	// carries one link per document), and that wait is reported as lag.
	slots := make(map[*archivist]chan struct{}, len(c.arch))
	for _, a := range c.arch {
		slots[a] = make(chan struct{}, 1)
	}
	results := make([]joinResult, len(specs))
	var wg sync.WaitGroup
	mid := start.Add(r.seconds / 2)
	var cpuMid time.Duration
	var probe *runtimeProbe
	bytes0 := c.links.bytes()
	cpu0 := cpuTime()
	// Process CPU time as each round's first join starts.
	roundCPU := make([]time.Duration, 0, rounds+1)
	for i, spec := range specs {
		if d := time.Until(spec.due); d > 0 {
			time.Sleep(d)
		}
		if spec.round == len(roundCPU) {
			roundCPU = append(roundCPU, cpuTime())
		}
		if r.traced && !spec.due.Before(mid) && !c.tracing.Load() {
			cpuMid = cpuTime()
			probe = startRuntimeProbe()
			c.tracing.Store(true)
		}
		wg.Add(1)
		go func(i int, spec joinSpec) {
			defer wg.Done()
			slot := slots[spec.arch]
			slot <- struct{}{}
			lag := time.Since(spec.due)
			results[i] = c.join(spec)
			results[i].lag = lag
			<-slot
		}(i, spec)
	}
	wg.Wait()
	windowEnd := time.Now()
	cpu1 := cpuTime()
	c.tracing.Store(false)
	wire := c.links.bytes() - bytes0
	if probe != nil {
		probe.finish(o.layer)
	}

	var took, lagMs, attachMs samples
	var byPath [2]samples // replay-path (small) and snapshot-path (large) documents
	caught := [2]int{}
	roundOps := make([]int, rounds)
	for _, res := range results {
		half := 0
		if r.traced && !res.spec.due.Before(mid) {
			half = 1
		}
		o.attempted += res.spec.arch.ops
		lagMs = append(lagMs, ms(res.lag))
		if res.err != nil {
			o.fail(res.spec.arch.ops, "catchup: join of %s in round %d: %v", res.spec.arch.name, res.spec.round, res.err)
			continue
		}
		took = append(took, ms(res.took))
		path := 0
		if res.spec.arch.large {
			path = 1
		}
		byPath[path] = append(byPath[path], ms(res.took))
		attachMs = append(attachMs, ms(res.attach))
		caught[half] += res.spec.arch.ops
		roundOps[res.spec.round] += res.spec.arch.ops
	}
	total := caught[0] + caught[1]
	if total == 0 {
		c.close()
		o.fail(1, "catchup: no join succeeded")
		return o, nil
	}
	// Half the joins take each path, so the median of all joins sits on
	// the boundary between the two paths and jumps between them from run
	// to run; the metric is the mean of the two paths' medians instead.
	o.e2e["deliver_p50_ms"] = (byPath[0].median() + byPath[1].median()) / 2
	o.layer["catchup.replay_path_ms_p50"] = byPath[0].median()
	o.layer["catchup.snapshot_path_ms_p50"] = byPath[1].median()
	// The window runs to the last join's completion, so joins that fall
	// behind the schedule lower the rate; while they keep up it reads the
	// offered join rate.
	o.e2e["ops_s"] = float64(total) / windowEnd.Sub(start).Seconds()
	o.layer["cpu_us_per_op"] = slicedCPUPerOp(append(roundCPU, cpu1), roundOps)
	o.e2e["wire_bytes_per_op"] = float64(wire) / float64(total)

	// The known tail: list every slow join with its path.
	p50 := took.median()
	slow := 0
	for _, res := range results {
		if res.err == nil && ms(res.took) > slowJoinFactor*p50 {
			slow++
			path := "replay"
			if res.snapshot {
				path = "snapshot"
			}
			fmt.Fprintf(r.out, "catchup: slow join: %s (%d ops) round %d took %.1f ms via %s (median %.1f ms)\n",
				res.spec.arch.name, res.spec.arch.ops, res.spec.round, ms(res.took), path, p50)
		}
	}
	tail, pct := took.tail()
	o.layer["bench.slow_joins"] = float64(slow)
	o.layer["bench.deliver_tail_ms"] = tail
	o.layer["bench.deliver_tail_pct"] = pct
	o.layer["bench.deliver_samples"] = float64(len(took))
	o.layer["bench.gen_lag_ms_p99"] = lagMs.quantile(0.99)
	o.layer["session.attach_ms_p50"] = attachMs.median()
	fmt.Fprintf(r.out, "catchup: %d joins of %d documents (%d history ops), join p50 %.1f ms, p%g %.1f ms, %d slow\n",
		len(took), len(c.arch), historyOps, p50, pct, tail, slow)

	hs := c.hub.Stats()
	hubCounters(o.layer, hs)
	if err := checkReplayRouting(hs); err != nil {
		o.fail(1, "catchup: %v", err)
	}
	engineCounters(o.layer, c.engines())
	linkCounters(o.layer, &c.links)
	c.mu.Lock()
	// Joiner engines are stopped by now; their snapshot installs were
	// counted per join.
	o.layer["core.apply_ns_per_op"] = float64(c.applyNs) / float64(max(c.applied, 1))
	o.layer["core.apply_batch_ops"] = float64(c.applied) / float64(max(c.batches, 1))
	o.layer["engine.recv_to_apply_ms"] = c.recvApply.mean()
	o.layer["hub.transit_ms"] = c.transitMs.mean()
	o.layer["link.send_ns_p50"] = c.sendNs.median()
	o.layer["core.local_edit_ns_p50"] = c.editNs.median()
	o.layer["core.local_edit_ns_p99"] = c.editNs.quantile(0.99)
	installMs, snapMs := c.installMs, c.snapMs
	c.mu.Unlock()
	var installs uint64
	for _, res := range results {
		installs += res.installed
	}
	o.layer["engine.snapshots_installed"] += float64(installs)
	c.codec.report(o.layer)
	if r.traced {
		base := float64(cpuMid-cpu0) / float64(max(caught[0], 1))
		o.layer["bench.trace_overhead_frac"] = (float64(cpu1-cpuMid)/float64(max(caught[1], 1)))/base - 1
		historyStages(c.tr, o.layer)
	}

	docs2 := make([]*treedoc.Doc, len(c.arch))
	for i, a := range c.arch {
		docs2[i] = a.doc
	}
	docMetrics(o, docs2)
	o.layer["storage.decode_ms"] = installMs.median()
	o.layer["storage.encode_ms"] = snapMs.median()
	var disk int64
	for _, a := range c.arch {
		disk += dirBytes(a.dir)
	}
	o.layer["oplog.disk_bytes_per_op"] = float64(disk) / float64(historyOps)

	// Restart: stop every archivist and reopen it from its log,
	// restartRounds times; each reopened replica must match its pre-stop
	// content.
	var restarts, stopMs, openMs samples
	for cycle := 0; cycle < restartRounds; cycle++ {
		runtime.GC()
		t0 := time.Now()
		for _, a := range c.arch {
			s0 := time.Now()
			a.eng.Stop()
			stopMs = append(stopMs, ms(time.Since(s0)))
			if err := a.eng.Err(); err != nil {
				o.fail(1, "catchup: %s: %v", a.name, err)
			}
			a.eng = nil
		}
		for _, a := range c.arch {
			s0 := time.Now()
			if err := c.open(a); err != nil {
				c.close()
				return nil, err
			}
			openMs = append(openMs, ms(time.Since(s0)))
			if got := a.doc.ContentString(); got != a.want {
				o.fail(a.ops, "catchup: %s reopened from its log with different content", a.name)
			}
		}
		restarts = append(restarts, time.Since(t0).Seconds())
	}
	c.close()
	heap, err := restoredHeapPerAtom(c.arch)
	if err != nil {
		return nil, err
	}
	o.layer["heap_bytes_per_atom"] = heap
	o.layer["restart_s"] = restarts.median()
	o.layer["oplog.stop_ms"] = stopMs.median()
	o.layer["oplog.open_ms_per_doc"] = openMs.median()
	return o, nil
}

// restoredHeapPerAtom is the live heap of replicas restored from the
// archivists' snapshots (treedoc.Open of MarshalBinary), per live atom:
// the state a joiner installs. It is measured on fresh replicas because
// the heap of the live ones depends on timing: an archivist's on how far
// compaction and log truncation had got (it spread 0.16 to 0.19 between
// runs), a joiner's on whether its suffix arrived before or after its
// snapshot (334 or about 1,000 B per atom).
func restoredHeapPerAtom(arch []*archivist) (float64, error) {
	// Stopped engines and closed sessions wind down for a moment; what
	// they hold would otherwise be freed between the two measurements.
	time.Sleep(time.Second)
	snaps := make([][]byte, len(arch))
	for i, a := range arch {
		data, err := a.doc.MarshalBinary()
		if err != nil {
			return 0, fmt.Errorf("perfbench: marshal %s: %w", a.name, err)
		}
		snaps[i] = data
	}
	without := liveHeap()
	docs := make([]*treedoc.Doc, len(snaps))
	atoms := 0
	for i, data := range snaps {
		d, err := treedoc.Open(data)
		if err != nil {
			return 0, fmt.Errorf("perfbench: restore %s: %w", arch[i].name, err)
		}
		docs[i] = d
		atoms += d.Len()
	}
	with := liveHeap()
	runtime.KeepAlive(docs)
	return (with - without) / float64(max(atoms, 1)), nil
}

// historyStages writes the engine's write-path rows from the traced
// history writing: Broadcast time and the wait from Broadcast return to
// the link Send carrying the op (stamp, retained log, oplog append and
// fsync, encode, peer queue).
func historyStages(tr *tracker, out map[string]float64) {
	var bcast, wait samples
	for _, s := range tr.sites {
		s.mu.Lock()
		for _, sp := range s.ops {
			if sp.bcast == 0 || sp.editEnd == 0 {
				continue
			}
			bcast = append(bcast, float64(sp.bcast-sp.editEnd))
			if sp.sendStart != 0 {
				wait = append(wait, float64(sp.sendStart-sp.bcast)/1e6)
			}
		}
		s.mu.Unlock()
	}
	out["engine.broadcast_ns_p50"] = bcast.median()
	out["engine.send_wait_ms"] = wait.mean()
}
