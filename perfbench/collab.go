package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/trace"
	"github.com/treedoc/treedoc/internal/transport"
	"github.com/treedoc/treedoc/internal/vclock"
)

// The collab workload pushes writes through the transport: one in-process
// hub on loopback, two Sessions (one hub connection each), and collabDocs
// documents with one replica on each Session. A single open-loop generator
// goroutine drives every replica through trace.DefaultMix at a fixed total
// rate; each op is timed from its due time to its apply at the other
// replica. Documents stay small, so the engine, the wire, the session mux
// and the hub relay do the work.

const (
	collabDocs = 32
	// collabRate is the total edit actions per second across all
	// replicas (about 1.4 ops per action with DefaultMix).
	collabRate = 2000
)

// opSpan holds one op's stage timestamps, in nanoseconds since the
// tracker's base. Zero means not reached (or not traced).
type opSpan struct {
	due, editStart, editEnd, bcast int64
	sendStart, sendEnd, recv       int64
	applyStart, applyEnd           int64
}

// siteSpans is one writer's spans, indexed by op sequence number - 1.
type siteSpans struct {
	mu  sync.Mutex
	ops []opSpan // guarded by mu
}

// tracker follows every collab op by its (site, seq) stamp. Due and apply
// times are always kept (they are the deliver metric); the stage
// timestamps between them only while tracing is on.
type tracker struct {
	base  time.Time
	on    atomic.Bool
	sites []*siteSpans // by site - 1; fixed after set-up
	codec codecProbe

	mu      sync.Mutex
	sendNs  samples       // per traced link Send, guarded by mu
	applyNs time.Duration // guarded by mu
	applied int           // guarded by mu
	batches int           // guarded by mu
}

func newTracker(sites, opsPerSite int) *tracker {
	t := &tracker{base: time.Now(), sites: make([]*siteSpans, sites)}
	for i := range t.sites {
		t.sites[i] = &siteSpans{ops: make([]opSpan, 0, opsPerSite)}
	}
	return t
}

// reset forgets every span, keeping the storage.
func (t *tracker) reset() {
	for _, s := range t.sites {
		s.ops = s.ops[:0]
	}
	t.mu.Lock()
	t.sendNs = t.sendNs[:0]
	t.mu.Unlock()
}

func (t *tracker) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

func (t *tracker) active() bool { return t.on.Load() }

// span calls fn with op's span under its site's lock; ops the tracker
// does not know (outside the measured window) are skipped.
func (t *tracker) span(op core.Op, fn func(*opSpan)) {
	i := int(op.Site) - 1
	if i < 0 || i >= len(t.sites) || op.Seq == 0 {
		return
	}
	s := t.sites[i]
	s.mu.Lock()
	if int(op.Seq) <= len(s.ops) {
		fn(&s.ops[op.Seq-1])
	}
	s.mu.Unlock()
}

// edited registers a local edit's ops with their due and edit times.
func (t *tracker) edited(site treedoc.SiteID, ops []core.Op, due, start, end time.Time) {
	if int(site) > len(t.sites) {
		return
	}
	s := t.sites[site-1]
	sp := opSpan{due: t.at(due)}
	if t.active() {
		sp.editStart, sp.editEnd = t.at(start), t.at(end)
	}
	s.mu.Lock()
	for _, op := range ops {
		for len(s.ops) < int(op.Seq) {
			s.ops = append(s.ops, opSpan{})
		}
		s.ops[op.Seq-1] = sp
	}
	s.mu.Unlock()
}

func (t *tracker) broadcast(ops []core.Op, at time.Time) {
	ts := t.at(at)
	for _, op := range ops {
		t.span(op, func(sp *opSpan) { sp.bcast = ts })
	}
}

func (t *tracker) sent(frame []byte, start, end time.Time) {
	t.mu.Lock()
	t.sendNs = append(t.sendNs, float64(end.Sub(start)))
	t.mu.Unlock()
	fc, err := decodeFrame(frame)
	if err != nil {
		return
	}
	s, e := t.at(start), t.at(end)
	for _, op := range fc.msgs {
		t.span(op, func(sp *opSpan) {
			if sp.sendStart == 0 {
				sp.sendStart, sp.sendEnd = s, e
			}
		})
	}
}

func (t *tracker) recv(frame []byte, at time.Time) {
	fc := t.codec.observe(frame)
	ts := t.at(at)
	for _, op := range fc.msgs {
		t.span(op, func(sp *opSpan) {
			if sp.recv == 0 {
				sp.recv = ts
			}
		})
	}
}

// onApply is the reader side: every remote op applied by a replica.
func (t *tracker) onApply(ops []core.Op, start, end time.Time) {
	s, e := t.at(start), t.at(end)
	for _, op := range ops {
		t.span(op, func(sp *opSpan) {
			if sp.applyEnd == 0 {
				sp.applyStart, sp.applyEnd = s, e
			}
		})
	}
	t.mu.Lock()
	t.applyNs += end.Sub(start)
	t.applied += len(ops)
	t.batches++
	t.mu.Unlock()
}

// collabRep is one replica: a Doc, its engine and its edit stream.
type collabRep struct {
	doc    *treedoc.Doc
	eng    *transport.Engine
	stream *trace.Stream
	site   treedoc.SiteID
	peer   *collabRep
	sent   int
}

// collabFleet is one set-up of the collab workload.
type collabFleet struct {
	hub      *transport.Hub
	sessions [2]*transport.Session
	reps     []*collabRep
	links    linkStats
	attachMs samples
}

func newCollabFleet(r *run, docs int, tr *tracker) (*collabFleet, error) {
	hub, err := transport.ListenHub("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: hub: %w", err)
	}
	f := &collabFleet{hub: hub}
	addr := hub.Addr().String()
	f.sessions = [2]*transport.Session{transport.DialSession(addr), transport.DialSession(addr)}
	for d := 0; d < docs; d++ {
		name := fmt.Sprintf("collab-%02d", d)
		var pair [2]*collabRep
		for side := 0; side < 2; side++ {
			site := treedoc.SiteID(2*d + side + 1)
			doc, err := treedoc.New(treedoc.WithSite(site))
			if err != nil {
				f.close()
				return nil, fmt.Errorf("perfbench: %w", err)
			}
			stream, err := trace.NewStream(trace.DefaultMix(), r.seed*7919+int64(site), fmt.Sprintf("s%d", site))
			if err != nil {
				f.close()
				return nil, fmt.Errorf("perfbench: %w", err)
			}
			eng, err := transport.NewEngine(site, &applier{Doc: doc, applied: tr.onApply})
			if err != nil {
				f.close()
				return nil, fmt.Errorf("perfbench: %w", err)
			}
			rep := &collabRep{doc: doc, eng: eng, stream: stream, site: site}
			f.reps = append(f.reps, rep)
			pair[side] = rep
			t0 := time.Now()
			link, err := f.sessions[side].Attach(name)
			if err != nil {
				f.close()
				return nil, fmt.Errorf("perfbench: attach %s: %w", name, err)
			}
			f.attachMs = append(f.attachMs, ms(time.Since(t0)))
			eng.Connect(r.wrap(link, &f.links, tr))
		}
		pair[0].peer, pair[1].peer = pair[1], pair[0]
	}
	return f, nil
}

// close stops every engine, then the sessions and the hub.
func (f *collabFleet) close() {
	for _, rep := range f.reps {
		rep.eng.Stop()
	}
	for _, s := range f.sessions {
		s.Close()
	}
	f.hub.Close()
}

func (f *collabFleet) engines() []*transport.Engine {
	out := make([]*transport.Engine, len(f.reps))
	for i, rep := range f.reps {
		out[i] = rep.eng
	}
	return out
}

// edit runs one generated action on rep and returns its ops.
func (rep *collabRep) edit() []core.Op {
	e := rep.stream.Next(rep.doc.Len())
	var ops []core.Op
	for i := 0; i < e.Del; i++ {
		op, err := rep.doc.DeleteAt(e.Pos)
		if err != nil {
			break // a concurrent remote delete shrank the document
		}
		ops = append(ops, op)
	}
	if len(e.Ins) > 0 {
		pos := min(e.Pos, rep.doc.Len())
		if ins, err := rep.doc.InsertRunAt(pos, e.Ins); err == nil {
			ops = append(ops, ins...)
		}
	}
	return ops
}

// quiesced reports whether every replica has applied exactly what both
// writers of its document sent.
func (f *collabFleet) quiesced() bool {
	for _, rep := range f.reps {
		if !clockIs(rep.eng.Clock(), rep, rep.peer) {
			return false
		}
	}
	return true
}

func clockIs(vc vclock.VC, reps ...*collabRep) bool {
	if vc == nil {
		return false
	}
	for _, rep := range reps {
		if vc.Get(rep.site) != uint64(rep.sent) {
			return false
		}
	}
	return true
}

func runCollab(r *run) (*outcome, error) {
	o := newOutcome()
	docs, rate := collabDocs, collabRate
	if r.tiny {
		docs, rate = 4, 200
	}
	// Spans are preallocated for twice the expected ops per site, so the
	// window does not grow them.
	perSite := int(float64(rate)*1.4*r.seconds.Seconds()/float64(2*docs))*2 + 64

	// The heap baseline is taken before any set-up (a stopped fleet's
	// memory can stay reachable for a while after Stop), with the span
	// store already allocated.
	tr := newTracker(2*docs, perSite)
	heapBase := liveHeap()
	var setups samples
	var fleet *collabFleet
	for spent := 0.0; moreSetups(len(setups), spent); {
		if fleet != nil {
			fleet.close()
		}
		t0 := time.Now()
		tr.reset()
		var err error
		if fleet, err = newCollabFleet(r, docs, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	o.e2e["setup_s"] = setups.median()

	// The open-loop generator: one goroutine, a fixed schedule, every op
	// timed from its due time. A traced run traces the second half only;
	// the first half is the overhead baseline.
	rng := rand.New(rand.NewSource(r.seed))
	interval := time.Second / time.Duration(rate)
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(r.seconds)
	mid := start.Add(r.seconds / 2)
	var lagMs, editNs, bcastNs samples
	var opsHalf [2]int
	var cpuAt [3]time.Duration
	// Process CPU time at the first action of each second of the window,
	// and the ops sent in that second.
	var sliceCPU []time.Duration
	var sliceOps []int
	bytes0 := fleet.links.bytes()
	cpuAt[0] = cpuTime()
	var probe *runtimeProbe
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		half := 0
		if r.traced && !due.Before(mid) {
			if !tr.on.Load() {
				cpuAt[1] = cpuTime()
				probe = startRuntimeProbe()
				tr.on.Store(true)
			}
			half = 1
		}
		if int(due.Sub(start)/time.Second) == len(sliceCPU) {
			sliceCPU = append(sliceCPU, cpuTime())
			sliceOps = append(sliceOps, 0)
		}
		rep := fleet.reps[rng.Intn(len(fleet.reps))]
		t0 := time.Now()
		ops := rep.edit()
		t1 := time.Now()
		if len(ops) == 0 {
			continue
		}
		lagMs = append(lagMs, ms(t0.Sub(due)))
		tr.edited(rep.site, ops, due, t0, t1)
		if err := rep.eng.Broadcast(ops...); err != nil {
			fleet.close()
			return nil, fmt.Errorf("perfbench: broadcast: %w", err)
		}
		rep.sent += len(ops)
		opsHalf[half] += len(ops)
		sliceOps[len(sliceOps)-1] += len(ops)
		if half == 1 {
			t2 := time.Now()
			tr.broadcast(ops, t2)
			editNs = append(editNs, float64(t1.Sub(t0))/float64(len(ops)))
			bcastNs = append(bcastNs, float64(t2.Sub(t1)))
		}
	}
	quiet := time.Now().Add(20 * time.Second)
	for !fleet.quiesced() && time.Now().Before(quiet) {
		time.Sleep(10 * time.Millisecond)
	}
	cpuAt[2] = cpuTime()
	tr.on.Store(false)
	wire := fleet.links.bytes() - bytes0
	if probe != nil {
		probe.finish(o.layer)
	}
	sent := opsHalf[0] + opsHalf[1]
	o.attempted = sent

	// Correctness: exact clocks, identical replicas, every op applied.
	for i := 0; i < len(fleet.reps); i += 2 {
		a, b := fleet.reps[i], fleet.reps[i+1]
		if !clockIs(a.eng.Clock(), a, b) || !clockIs(b.eng.Clock(), a, b) {
			o.fail(a.sent+b.sent, "collab: doc %d clocks %v / %v, writers sent %d and %d",
				i/2, a.eng.Clock(), b.eng.Clock(), a.sent, b.sent)
			continue
		}
		if a.doc.ContentString() != b.doc.ContentString() {
			o.fail(a.sent+b.sent, "collab: doc %d replicas differ", i/2)
		}
		for _, rep := range []*collabRep{a, b} {
			if err := rep.eng.Err(); err != nil {
				o.fail(1, "collab: site %d: %v", rep.site, err)
			}
		}
	}
	var deliverMs samples
	var stages stageSet
	lost := 0
	var lastApply int64 // the last op's apply at the other replica
	for _, s := range tr.sites {
		s.mu.Lock()
		for _, sp := range s.ops {
			if sp.due == 0 {
				continue
			}
			if sp.applyEnd == 0 {
				lost++
				continue
			}
			deliverMs = append(deliverMs, float64(sp.applyEnd-sp.due)/1e6)
			lastApply = max(lastApply, sp.applyEnd)
			if sp.editStart != 0 {
				stages.add(sp)
			}
		}
		s.mu.Unlock()
	}
	if lost > 0 {
		o.fail(lost, "collab: %d ops never applied at the other replica", lost)
	}

	// Throughput runs to the last op's apply, not to the generator's last
	// action: delivery that falls behind the schedule lowers it. While the
	// transport keeps up it reads the offered rate.
	o.e2e["ops_s"] = float64(len(deliverMs)) / (float64(max(lastApply-tr.at(start), 1)) / 1e9)
	o.e2e["deliver_p50_ms"] = deliverMs.median()
	o.layer["cpu_us_per_op"] = slicedCPUPerOp(append(sliceCPU, cpuAt[2]), sliceOps)
	o.e2e["wire_bytes_per_op"] = float64(wire) / float64(max(sent, 1))
	tail, pct := deliverMs.tail()
	o.layer["bench.deliver_tail_ms"] = tail
	o.layer["bench.deliver_tail_pct"] = pct
	o.layer["bench.deliver_samples"] = float64(len(deliverMs))
	o.layer["bench.gen_lag_ms_p99"] = lagMs.quantile(0.99)
	fmt.Fprintf(r.out, "collab: %d ops sent by %d replicas, deliver p50 %.3f ms, p%g %.3f ms (%d samples), generator lag p99 %.3f ms\n",
		sent, len(fleet.reps), deliverMs.median(), pct, tail, len(deliverMs), lagMs.quantile(0.99))

	if r.traced {
		o.layer["core.local_edit_ns_p50"] = editNs.median()
		o.layer["core.local_edit_ns_p99"] = editNs.quantile(0.99)
		o.layer["engine.broadcast_ns_p50"] = bcastNs.median()
		tr.mu.Lock()
		o.layer["core.apply_ns_per_op"] = float64(tr.applyNs) / float64(max(tr.applied, 1))
		o.layer["core.apply_batch_ops"] = float64(tr.applied) / float64(max(tr.batches, 1))
		o.layer["link.send_ns_p50"] = tr.sendNs.median()
		tr.mu.Unlock()
		tr.codec.report(o.layer)
		base := float64(cpuAt[1]-cpuAt[0]) / float64(max(opsHalf[0], 1))
		o.layer["bench.trace_overhead_frac"] = (float64(cpuAt[2]-cpuAt[1])/float64(max(opsHalf[1], 1)))/base - 1
		stages.report(r, o.layer)
		if err := stages.write(filepath.Join(".bench_build", fmt.Sprintf("spans-collab-seed%d.csv", r.seed))); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	o.layer["session.attach_ms_p50"] = fleet.attachMs.median()
	engineCounters(o.layer, fleet.engines())
	hubCounters(o.layer, fleet.hub.Stats())
	linkCounters(o.layer, &fleet.links)

	docs2 := make([]*treedoc.Doc, len(fleet.reps))
	atoms := 0
	for i, rep := range fleet.reps {
		docs2[i] = rep.doc
		atoms += rep.doc.Len()
	}
	o.layer["heap_bytes_per_atom"] = (liveHeap() - heapBase) / float64(max(atoms, 1))
	docMetrics(o, docs2)
	restart, err := restartFromSnapshots(docs2)
	if err != nil {
		o.fail(1, "collab: %v", err)
	}
	o.layer["restart_s"] = restart
	fleet.close()
	return o, nil
}

// stageSet collects the traced ops' per-stage self times.
type stageSet struct {
	deliver samples
	self    [len(stageNames)]samples
	spans   []opSpan
}

// stageNames are the collab stages in order; consecutive timestamps of an
// opSpan bound each one.
var stageNames = [...]string{
	"gen_lag",       // due -> edit call
	"local_edit",    // edit call -> edit return
	"broadcast",     // edit return -> Broadcast return
	"send_wait",     // Broadcast return -> writer link Send
	"link_send",     // writer link Send call
	"hub_transit",   // writer Send return -> reader Recv return
	"recv_to_apply", // reader Recv return -> ApplyBatch entry
	"apply",         // ApplyBatch
}

func (s *stageSet) add(sp opSpan) {
	ts := [...]int64{sp.due, sp.editStart, sp.editEnd, sp.bcast, sp.sendStart, sp.sendEnd, sp.recv, sp.applyStart, sp.applyEnd}
	for _, v := range ts {
		if v == 0 {
			s.deliver = append(s.deliver, float64(sp.applyEnd-sp.due)/1e6)
			return // incomplete: counts toward the mean only
		}
	}
	s.deliver = append(s.deliver, float64(sp.applyEnd-sp.due)/1e6)
	for i := range s.self {
		s.self[i] = append(s.self[i], float64(ts[i+1]-ts[i])/1e6)
	}
	s.spans = append(s.spans, sp)
}

// report prints each stage's self time, checks that the stage means add up
// to the mean deliver latency, and names the stage owning the tail.
func (s *stageSet) report(r *run, out map[string]float64) {
	if len(s.spans) == 0 {
		return
	}
	sum := 0.0
	fmt.Fprintf(r.out, "collab stages over %d traced ops (of %d):\n", len(s.spans), len(s.deliver))
	for i, name := range stageNames {
		m := s.self[i].mean()
		sum += m
		fmt.Fprintf(r.out, "  %-14s mean %8.4f ms  p50 %8.4f ms  p99 %8.4f ms\n", name, m, s.self[i].median(), s.self[i].quantile(0.99))
	}
	mean := s.deliver.mean()
	out["bench.stage_sum_frac"] = sum / mean
	out["engine.send_wait_ms"] = s.self[3].mean()
	out["hub.transit_ms"] = s.self[5].mean()
	out["engine.recv_to_apply_ms"] = s.self[6].mean()
	fmt.Fprintf(r.out, "  stage means sum to %.4f ms against a mean deliver of %.4f ms (%.1f%%)\n", sum, mean, 100*sum/mean)

	// The tail owner: over the ops above the traced p99, the stage with
	// the largest self time in most of them.
	p99 := s.deliver.quantile(0.99)
	var owners [len(stageNames)]int
	n := 0
	for j, sp := range s.spans {
		if float64(sp.applyEnd-sp.due)/1e6 <= p99 {
			continue
		}
		n++
		best := 0
		for i := range s.self {
			if s.self[i][j] > s.self[best][j] {
				best = i
			}
		}
		owners[best]++
	}
	type owner struct {
		name string
		n    int
	}
	var list []owner
	for i, c := range owners {
		if c > 0 {
			list = append(list, owner{stageNames[i], c})
		}
	}
	sort.Slice(list, func(a, b int) bool { return list[a].n > list[b].n })
	parts := make([]string, len(list))
	for i, ow := range list {
		parts[i] = fmt.Sprintf("%s %d", ow.name, ow.n)
	}
	if len(list) > 0 {
		fmt.Fprintf(r.out, "  tail owner: %s owns the largest stage in %d of the %d ops above p99 %.3f ms (%s)\n",
			list[0].name, list[0].n, n, p99, strings.Join(parts, ", "))
	}
}

// write saves the traced spans as CSV, one op per line.
func (s *stageSet) write(path string) error {
	var b strings.Builder
	b.WriteString("due,edit_start,edit_end,broadcast,send_start,send_end,recv,apply_start,apply_end\n")
	for _, sp := range s.spans {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%d\n", sp.due, sp.editStart, sp.editEnd, sp.bcast,
			sp.sendStart, sp.sendEnd, sp.recv, sp.applyStart, sp.applyEnd)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("perfbench: write spans: %w", err)
	}
	return nil
}
