package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/trace"
)

// The replay workload drives the core alone: a writer Doc makes local
// edits, each batch is encoded with Op.AppendBinary, decoded with
// core.DecodeOp and applied to a reader Doc with ApplyBatch, and every
// pass ends with a snapshot round trip (MarshalBinary, then Open). Two
// inputs share the time: the paper's six calibrated Section 5 histories
// (small, cache-resident trees, scattered hot-spot revisions) and bigdoc,
// one character-granularity typing session grown to about 100k live atoms
// (a tree far beyond L2, cursor-local edits).

// bigdocAtoms is the live size the bigdoc session grows to.
const bigdocAtoms = 100_000

// bigdocBatch is how many ops the bigdoc writer ships per batch, the
// engine's default batch size.
const bigdocBatch = 64

// replayInputs are the generated inputs of one replay run.
type replayInputs struct {
	paper  []*trace.Trace
	finals [][]string
	bigdoc []trace.Edit
}

// letters are the single-character atoms of the bigdoc session.
var letters = func() []string {
	out := make([]string, 26)
	for i := range out {
		out[i] = string(rune('a' + i))
	}
	return out
}()

// bigdocShapeSeed fixes the bigdoc session's cursor walk. The tree a
// session grows, and so its cost, depends on the cursor walk: on a 2-vCPU
// VM one pass took 4.4 s to 8.3 s across stream seeds. The run seed
// therefore chooses only the characters typed. Likewise the paper
// histories are the stock calibrated profiles: across generator seeds the
// Distributed Computing history alone replayed in 154 ms to 941 ms.
const bigdocShapeSeed = 1

func genReplayInputs(seed int64, tiny bool) (*replayInputs, error) {
	in := &replayInputs{}
	for _, p := range trace.Profiles() {
		if tiny {
			p.Revisions = max(5, p.Revisions/40)
		}
		t, err := trace.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("perfbench: generate %s: %w", p.Name, err)
		}
		final, err := t.Final()
		if err != nil {
			return nil, fmt.Errorf("perfbench: %w", err)
		}
		in.paper = append(in.paper, t)
		in.finals = append(in.finals, final)
	}
	mix := trace.DefaultMix()
	mix.JumpProb = 0.01 // cursor-local typing
	s, err := trace.NewStream(mix, bigdocShapeSeed, "b")
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	target := bigdocAtoms
	if tiny {
		target = 2000
	}
	for n := 0; n < target; {
		e := s.Next(n)
		for i := range e.Ins {
			e.Ins[i] = letters[rng.Intn(len(letters))]
		}
		n += len(e.Ins) - e.Del
		in.bigdoc = append(in.bigdoc, e)
	}
	return in, nil
}

// inputStats accumulates one input's measurements.
type inputStats struct {
	perPass             bool // figures are medians over passes, not batches
	ops, batches, bytes int
	busy                time.Duration // edit+encode+decode+apply, summed over batches
	enc, dec, apply     time.Duration
	deliverMs           samples // per batch, edit start to apply end
	editNs              samples // per local edit op (traced only)
	// Per batch: wall and process CPU time per op, weighted by the
	// batch's ops.
	opNs, opCPUus, opWeight samples
	// Per pass: busy time and process CPU time per op.
	passNs, passCPUus samples
	// Per pass, summed over the pass's documents: snapshot encode and
	// decode, and restore (decode plus content check).
	snapEncMs, snapDecMs, restoreS samples
	// Every reference kernel time measured during the phase
	// (speedref.go): after each paper history, after each bigdoc pass.
	refMs  samples
	refCPU time.Duration // process CPU time of the kernel runs
	// Per pass: busy time per op, and the pass's revision latencies,
	// each scaled by the pass's mean reference kernel time.
	passScaledNs, deliverScaledMs samples
}

// Throughput and CPU cost are medians, robust to bursts of interference
// from outside the process that a total over the window is not. A paper
// pass lasts about a second and holds the input's whole cost
// distribution, so paper figures are medians over passes. A bigdoc pass
// takes seconds, so bigdoc figures are weighted medians over its 64-op
// batches.

// rate is the input's throughput in ops per second.
func (st *inputStats) rate() float64 {
	if st.perPass {
		return 1e9 / st.passNs.median()
	}
	return 1e9 / weightedMedian(st.opNs, st.opWeight)
}

// scaledRate is rate at the reference machine speed. A paper pass is
// scaled by the reference times measured between its histories; a
// bigdoc pass is long and has one, so bigdoc is scaled by refMs, the
// run's median reference time.
func (st *inputStats) scaledRate(refMs float64) float64 {
	if st.perPass {
		return 1e9 / st.passScaledNs.median()
	}
	return st.rate() * refMs / refNominalMs
}

// timeRef times the reference kernel once.
func (st *inputStats) timeRef(ref *speedRef) error {
	t, cpu, ok := ref.measure()
	if !ok {
		return fmt.Errorf("perfbench: the reference kernel gave another result")
	}
	st.refMs = append(st.refMs, t)
	st.refCPU += cpu
	return nil
}

// cpuPerOp is the input's process CPU time per op, in µs.
func (st *inputStats) cpuPerOp() float64 {
	if st.perPass {
		return st.passCPUus.median()
	}
	return weightedMedian(st.opCPUus, st.opWeight)
}

// pipe is one writer/reader pair and its scratch buffers.
type pipe struct {
	w, r   *treedoc.Doc
	st     *inputStats
	traced bool
	ops    []core.Op
	dec    []core.Op
	buf    []byte
}

func newPipe(st *inputStats, traced bool) (*pipe, error) {
	w, err := treedoc.New(treedoc.WithSite(1))
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	r, err := treedoc.New(treedoc.WithSite(2))
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	return &pipe{w: w, r: r, st: st, traced: traced}, nil
}

// local runs one local edit on the writer, timing it when traced.
func (p *pipe) local(edit func() (core.Op, error)) error {
	var t0 time.Time
	if p.traced {
		t0 = time.Now()
	}
	op, err := edit()
	if err != nil {
		return fmt.Errorf("perfbench: local edit: %w", err)
	}
	if p.traced {
		p.st.editNs = append(p.st.editNs, float64(time.Since(t0)))
	}
	p.ops = append(p.ops, op)
	return nil
}

// mark is the start of a batch: wall clock and process CPU time.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func now() mark { return mark{time.Now(), cpuTime()} }

// ship sends the pending ops through the codec to the reader.
func (p *pipe) ship(m mark) error {
	if len(p.ops) == 0 {
		return nil
	}
	start := m.wall
	t1 := time.Now()
	p.buf = p.buf[:0]
	for _, op := range p.ops {
		p.buf = op.AppendBinary(p.buf)
	}
	t2 := time.Now()
	p.dec = p.dec[:0]
	for off := 0; off < len(p.buf); {
		op, n, err := core.DecodeOp(p.buf[off:])
		if err != nil {
			return fmt.Errorf("perfbench: decode op: %w", err)
		}
		p.dec = append(p.dec, op)
		off += n
	}
	t3 := time.Now()
	if _, err := p.r.ApplyBatch(p.dec); err != nil {
		return fmt.Errorf("perfbench: reader apply: %w", err)
	}
	t4 := time.Now()
	st := p.st
	st.ops += len(p.ops)
	st.batches++
	st.bytes += len(p.buf)
	st.enc += t2.Sub(t1)
	st.dec += t3.Sub(t2)
	st.apply += t4.Sub(t3)
	st.busy += t4.Sub(start)
	st.deliverMs = append(st.deliverMs, ms(t4.Sub(start)))
	n := float64(len(p.ops))
	st.opNs = append(st.opNs, float64(t4.Sub(start))/n)
	st.opCPUus = append(st.opCPUus, float64(cpuTime()-m.cpu)/1e3/n)
	st.opWeight = append(st.opWeight, n)
	p.ops = p.ops[:0]
	return nil
}

// paperPass replays one history into a fresh pair.
func paperPass(t *trace.Trace, st *inputStats, traced bool) (*pipe, error) {
	p, err := newPipe(st, traced)
	if err != nil {
		return nil, err
	}
	start := now()
	for i, a := range t.Initial {
		if err := p.local(func() (core.Op, error) { return p.w.InsertAt(i, a) }); err != nil {
			return nil, err
		}
	}
	if err := p.ship(start); err != nil {
		return nil, err
	}
	for _, rev := range t.Revisions {
		start := now()
		for _, op := range rev.Ops {
			op := op
			var err error
			if op.Kind == diff.Insert {
				err = p.local(func() (core.Op, error) { return p.w.InsertAt(op.Index, op.Atom) })
			} else {
				err = p.local(func() (core.Op, error) { return p.w.DeleteAt(op.Index) })
			}
			if err != nil {
				return nil, err
			}
		}
		p.w.EndRevision()
		if err := p.ship(start); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// bigdocPass replays the typing session into a fresh pair.
func bigdocPass(edits []trace.Edit, st *inputStats, traced bool) (*pipe, error) {
	p, err := newPipe(st, traced)
	if err != nil {
		return nil, err
	}
	start := now()
	for _, e := range edits {
		for i := 0; i < e.Del; i++ {
			if err := p.local(func() (core.Op, error) { return p.w.DeleteAt(e.Pos) }); err != nil {
				return nil, err
			}
		}
		for i, a := range e.Ins {
			if err := p.local(func() (core.Op, error) { return p.w.InsertAt(e.Pos+i, a) }); err != nil {
				return nil, err
			}
		}
		if len(p.ops) >= bigdocBatch {
			if err := p.ship(start); err != nil {
				return nil, err
			}
			start = now()
		}
	}
	return p, p.ship(start)
}

// check compares the pair and the reader's snapshot round trip against
// want (nil: the writer's content). It returns the snapshot encode time,
// the decode time, and the restore time: decode plus the content check.
func (p *pipe) check(want []string) (encode, decode, restore time.Duration, err error) {
	wc, rc := p.w.Content(), p.r.Content()
	if want == nil {
		want = wc
	}
	if !slices.Equal(wc, want) || !slices.Equal(rc, want) {
		return 0, 0, 0, fmt.Errorf("writer (%d atoms) and reader (%d atoms) differ from the expected %d atoms",
			len(wc), len(rc), len(want))
	}
	t0 := time.Now()
	data, err := p.r.MarshalBinary()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("marshal: %w", err)
	}
	t1 := time.Now()
	back, err := treedoc.Open(data)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("open: %w", err)
	}
	t2 := time.Now()
	if !slices.Equal(back.Content(), want) {
		return 0, 0, 0, fmt.Errorf("snapshot round trip changed the content")
	}
	return t1.Sub(t0), t2.Sub(t1), time.Since(t1), nil
}

// replayPhase runs whole passes of one input within budget and returns
// the last pass's pairs. It runs at least one pass, and starts another
// only while at least half of one still fits.
func replayPhase(o *outcome, budget time.Duration, st *inputStats, pass func() ([]*pipe, [][]string, error)) ([]*pipe, error) {
	deadline := time.Now().Add(budget)
	var last []*pipe
	var took time.Duration
	for first := true; first || time.Until(deadline) > took/2; first = false {
		t0 := time.Now()
		ops0, busy0, cpu0 := st.ops, st.busy, cpuTime()-st.refCPU
		ref0, del0 := len(st.refMs), len(st.deliverMs)
		pipes, wants, err := pass()
		if err != nil {
			return nil, err
		}
		n := float64(st.ops - ops0)
		st.passCPUus = append(st.passCPUus, float64(cpuTime()-st.refCPU-cpu0)/1e3/n)
		st.passNs = append(st.passNs, float64(st.busy-busy0)/n)
		scale := refNominalMs / st.refMs[ref0:].mean()
		st.passScaledNs = append(st.passScaledNs, st.passNs[len(st.passNs)-1]*scale)
		for _, d := range st.deliverMs[del0:] {
			st.deliverScaledMs = append(st.deliverScaledMs, d*scale)
		}
		var enc, dec, restore time.Duration
		for i, p := range pipes {
			e, d, rs, err := p.check(wants[i])
			if err != nil {
				o.fail(p.st.ops, "replay: %v", err)
			}
			enc += e
			dec += d
			restore += rs
		}
		st.snapEncMs = append(st.snapEncMs, ms(enc))
		st.snapDecMs = append(st.snapDecMs, ms(dec))
		st.restoreS = append(st.restoreS, restore.Seconds())
		last = pipes
		took = time.Since(t0)
	}
	return last, nil
}

func runReplay(r *run) (*outcome, error) {
	o := newOutcome()
	var in *replayInputs
	var setups samples
	for spent := 0.0; moreSetups(len(setups), spent); {
		t0 := time.Now()
		var err error
		if in, err = genReplayInputs(r.seed, r.tiny); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	o.e2e["setup_s"] = setups.median()

	// Each pass times the reference kernel after each paper history, or
	// after the bigdoc session, outside the busy time.
	ref := newSpeedRef()
	paperPassFn := func(st *inputStats, traced bool) func() ([]*pipe, [][]string, error) {
		return func() ([]*pipe, [][]string, error) {
			var pipes []*pipe
			for _, t := range in.paper {
				p, err := paperPass(t, st, traced)
				if err != nil {
					return nil, nil, err
				}
				pipes = append(pipes, p)
				if err := st.timeRef(ref); err != nil {
					return nil, nil, err
				}
			}
			return pipes, in.finals, nil
		}
	}
	bigPassFn := func(st *inputStats, traced bool) func() ([]*pipe, [][]string, error) {
		return func() ([]*pipe, [][]string, error) {
			p, err := bigdocPass(in.bigdoc, st, traced)
			if err != nil {
				return nil, nil, err
			}
			return []*pipe{p}, [][]string{nil}, st.timeRef(ref)
		}
	}

	// One untimed paper pass first: the first pass pays for faulting in
	// fresh heap memory.
	if _, _, err := paperPassFn(&inputStats{}, false)(); err != nil {
		return nil, err
	}
	// Untraced: each input gets half the window. Traced: an untraced
	// quarter each (the overhead baseline), then a traced quarter each.
	share := r.seconds / 2
	if r.traced {
		share = r.seconds / 4
	}
	paper, basePaper := inputStats{perPass: true}, inputStats{perPass: true}
	var big, baseBig inputStats
	var paperDocs, bigDocs []*pipe
	var err error
	if r.traced {
		if _, err = replayPhase(o, share, &basePaper, paperPassFn(&basePaper, false)); err != nil {
			return nil, err
		}
		if _, err = replayPhase(o, share, &baseBig, bigPassFn(&baseBig, false)); err != nil {
			return nil, err
		}
	}
	probe := startRuntimeProbe()
	if paperDocs, err = replayPhase(o, share, &paper, paperPassFn(&paper, r.traced)); err != nil {
		return nil, err
	}
	if bigDocs, err = replayPhase(o, share, &big, bigPassFn(&big, r.traced)); err != nil {
		return nil, err
	}
	if r.traced {
		probe.finish(o.layer)
	}

	both := append(append([]*pipe(nil), paperDocs...), bigDocs...)
	readers := make([]*treedoc.Doc, len(both))
	for i, p := range both {
		readers[i] = p.r
	}
	docMetrics(o, readers)
	// Restoring every pass's replicas from their snapshots happens
	// throughout the window, so its median is steadier than rounds at the
	// end would be.
	o.layer["restart_s"] = paper.restoreS.median() + big.restoreS.median()
	inputRows(o.layer, "paper.", &paper, paperDocs)
	inputRows(o.layer, "bigdoc.", &big, bigDocs)
	bigdocLen := bigDocs[0].r.Len()

	// Heap attributable to the replicas: the live heap with the last
	// pass's pairs held, minus the live heap once they are dropped.
	paperAtoms, bigAtoms := pairAtoms(paperDocs), pairAtoms(bigDocs)
	both, readers = nil, nil
	hBoth := liveHeap()
	runtime.KeepAlive(bigDocs)
	bigDocs = nil
	hPaper := liveHeap()
	runtime.KeepAlive(paperDocs)
	paperDocs = nil
	hNone := liveHeap()
	o.layer["paper.heap_bytes_per_atom"] = (hPaper - hNone) / paperAtoms
	o.layer["bigdoc.heap_bytes_per_atom"] = (hBoth - hPaper) / bigAtoms
	o.layer["heap_bytes_per_atom"] = (hBoth - hNone) / (paperAtoms + bigAtoms)

	var all inputStats
	for _, st := range []*inputStats{&paper, &big} {
		all.ops += st.ops
		all.bytes += st.bytes
		all.deliverMs = append(all.deliverMs, st.deliverMs...)
		all.editNs = append(all.editNs, st.editNs...)
		all.batches += st.batches
		all.enc += st.enc
		all.dec += st.dec
		all.apply += st.apply
	}
	o.attempted = all.ops
	// The two inputs count equally, whatever their op counts: throughput
	// is the harmonic mean of their rates, CPU the mean of their costs,
	// and latency the paper input's per-revision median (a bigdoc batch
	// is a fixed 64 ops, so its latency is its throughput again).
	// Throughput and latency are at the reference machine speed
	// (speedref.go); cpu_us_per_op leaves out the kernel runs.
	refMs := append(append(samples(nil), paper.refMs...), big.refMs...).median()
	rawRate := 2 / (1/paper.rate() + 1/big.rate())
	o.e2e["ops_s"] = 2 / (1/paper.scaledRate(refMs) + 1/big.scaledRate(refMs))
	o.layer["cpu_us_per_op"] = (paper.cpuPerOp() + big.cpuPerOp()) / 2
	o.e2e["deliver_p50_ms"] = paper.deliverScaledMs.median()
	o.layer["bench.ref_kernel_ms"] = refMs
	o.e2e["wire_bytes_per_op"] = float64(all.bytes) / float64(all.ops)

	o.layer["core.local_edit_ns_p50"] = all.editNs.median()
	o.layer["core.local_edit_ns_p99"] = all.editNs.quantile(0.99)
	o.layer["core.apply_ns_per_op"] = float64(all.apply) / float64(all.ops)
	o.layer["core.apply_batch_ops"] = float64(all.ops) / float64(all.batches)
	o.layer["codec.encode_ns_per_op"] = float64(all.enc) / float64(all.ops)
	o.layer["codec.decode_ns_per_op"] = float64(all.dec) / float64(all.ops)
	o.layer["codec.bytes_per_op"] = float64(all.bytes) / float64(all.ops)
	o.layer["storage.encode_ms"] = paper.snapEncMs.median() + big.snapEncMs.median()
	o.layer["storage.decode_ms"] = paper.snapDecMs.median() + big.snapDecMs.median()
	tail, pct := paper.deliverMs.tail()
	o.layer["bench.deliver_tail_ms"] = tail
	o.layer["bench.deliver_tail_pct"] = pct
	o.layer["bench.deliver_samples"] = float64(len(paper.deliverMs))
	if r.traced {
		base := (basePaper.cpuPerOp() + baseBig.cpuPerOp()) / 2
		o.layer["bench.trace_overhead_frac"] = o.layer["cpu_us_per_op"]/base - 1
	}
	fmt.Fprintf(r.out, "replay: paper %d ops in %d batches (%.0f ops/s), bigdoc %d ops in %d batches (%.0f ops/s), %d live atoms\n",
		paper.ops, paper.batches, paper.rate(), big.ops, big.batches, big.rate(), bigdocLen)
	fmt.Fprintf(r.out, "replay: reference kernel %.2f ms (nominal %.0f ms); as measured %.0f ops/s, deliver %.3f ms; at nominal speed paper %.0f ops/s, bigdoc %.0f ops/s, %.0f ops/s, deliver %.3f ms\n",
		refMs, refNominalMs, rawRate, paper.deliverMs.median(), paper.scaledRate(refMs), big.scaledRate(refMs), o.e2e["ops_s"], o.e2e["deliver_p50_ms"])
	return o, nil
}

// pairAtoms counts the live atoms of both replicas of every pair.
func pairAtoms(pipes []*pipe) float64 {
	n := 0
	for _, p := range pipes {
		n += p.w.Len() + p.r.Len()
	}
	return float64(max(n, 1))
}

// inputRows writes one replay input's per-layer rows.
func inputRows(out map[string]float64, prefix string, st *inputStats, pipes []*pipe) {
	sub := map[string]float64{}
	readers := make([]*treedoc.Doc, len(pipes))
	for i, p := range pipes {
		readers[i] = p.r
	}
	treeRows(sub, readers)
	n := float64(max(st.ops, 1))
	sub["replay_ops_s"] = st.rate()
	sub["core.local_edit_ns_p50"] = st.editNs.median()
	sub["core.local_edit_ns_p99"] = st.editNs.quantile(0.99)
	sub["core.apply_ns_per_op"] = float64(st.apply) / n
	sub["codec.encode_ns_per_op"] = float64(st.enc) / n
	sub["codec.decode_ns_per_op"] = float64(st.dec) / n
	sub["codec.bytes_per_op"] = float64(st.bytes) / n
	sub["storage.encode_ms"] = st.snapEncMs.median()
	sub["storage.decode_ms"] = st.snapDecMs.median()
	for k, v := range sub {
		out[prefix+k] = v
	}
}

// treeRows writes the core.* tree-shape rows and the storage.* rows (one
// MarshalBinary and one Open of each replica) for a set of replicas.
func treeRows(out map[string]float64, docs []*treedoc.Doc) (atoms, idBits, snapBytes int) {
	maxBits := 0
	var enc, dec time.Duration
	for _, d := range docs {
		s := d.Stats().Tree
		atoms += s.LiveAtoms
		idBits += s.TotalIDBits
		out["core.live_atoms"] += float64(s.LiveAtoms)
		out["core.nodes"] += float64(s.Nodes)
		out["core.tombstones"] += float64(s.DeadMinis)
		maxBits = max(maxBits, s.MaxIDBits)
		t0 := time.Now()
		data, err := d.MarshalBinary()
		t1 := time.Now()
		if err != nil {
			continue // restartFromSnapshots reports the failure
		}
		snapBytes += len(data)
		if _, err := treedoc.Open(data); err == nil {
			dec += time.Since(t1)
		}
		enc += t1.Sub(t0)
	}
	out["core.max_id_bits"] = float64(maxBits)
	out["storage.snapshot_bytes"] = float64(snapBytes)
	out["storage.encode_ms"] = ms(enc)
	out["storage.decode_ms"] = ms(dec)
	return atoms, idBits, snapBytes
}

// docMetrics writes the per-atom end-to-end metrics and the core tree
// rows for the replicas a workload ends with.
func docMetrics(o *outcome, docs []*treedoc.Doc) {
	atoms, idBits, snapBytes := treeRows(o.layer, docs)
	o.e2e["snapshot_bytes_per_atom"] = float64(snapBytes) / float64(max(atoms, 1))
	o.e2e["id_bits_per_atom"] = float64(idBits) / float64(max(atoms, 1))
}

// restartFromSnapshots is restart_s for collab: the median over
// restartRounds rounds of restoring every replica from its snapshot and
// checking its content, each round after a collection.
func restartFromSnapshots(docs []*treedoc.Doc) (float64, error) {
	snaps := make([][]byte, len(docs))
	wants := make([][]string, len(docs))
	for i, d := range docs {
		data, err := d.MarshalBinary()
		if err != nil {
			return 0, fmt.Errorf("marshal: %w", err)
		}
		snaps[i], wants[i] = data, d.Content()
	}
	var rounds samples
	for round := 0; round < restartRounds; round++ {
		runtime.GC()
		t0 := time.Now()
		for i, data := range snaps {
			back, err := treedoc.Open(data)
			if err != nil {
				return 0, fmt.Errorf("restore: %w", err)
			}
			if !slices.Equal(back.Content(), wants[i]) {
				return 0, fmt.Errorf("restored replica %d differs", i)
			}
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	return rounds.median(), nil
}
