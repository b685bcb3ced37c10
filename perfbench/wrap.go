package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/transport"
)

// The benchmark times layers from the outside through two seams: an
// applier around each replica (the engine's side of the core) and a link
// around each session link (the engine's side of the wire). Neither
// changes what the program does; a traced run only adds clock reads and,
// outside the engines, a second decode (and a re-encode) of each frame.

// applier is the replica handed to an engine: a treedoc.Doc whose batched
// apply and snapshot calls are timed. It embeds the Doc so that every
// optional replica interface the Doc implements (BatchApplier,
// Snapshotter, Flattener) reaches the engine, which then does the same
// work it does over a bare Doc.
type applier struct {
	*treedoc.Doc
	// applied sees every successfully applied run of remote ops with the
	// time the batch entered and left the core; nil means not observed.
	applied func(ops []core.Op, start, end time.Time)
	// installed sees each snapshot installed from a peer.
	installed func(start, end time.Time)
	// snapshotted sees each snapshot the engine takes of the replica.
	snapshotted func(start, end time.Time)
}

var (
	_ transport.BatchApplier = (*applier)(nil)
	_ transport.Snapshotter  = (*applier)(nil)
	_ transport.Flattener    = (*applier)(nil)
)

func (a *applier) Apply(op core.Op) error {
	_, err := a.ApplyBatch([]core.Op{op})
	return err
}

func (a *applier) ApplyBatch(ops []core.Op) (int, error) {
	start := time.Now()
	n, err := a.Doc.ApplyBatch(ops)
	if a.applied != nil && n > 0 {
		a.applied(ops[:n], start, time.Now())
	}
	return n, err
}

func (a *applier) Snapshot() ([]byte, treedoc.Version, error) {
	start := time.Now()
	data, v, err := a.Doc.Snapshot()
	if a.snapshotted != nil && err == nil {
		a.snapshotted(start, time.Now())
	}
	return data, v, err
}

func (a *applier) InstallSnapshot(data []byte) (treedoc.Version, error) {
	start := time.Now()
	v, err := a.Doc.InstallSnapshot(data)
	if a.installed != nil && err == nil {
		a.installed(start, time.Now())
	}
	return v, err
}

// linkStats counts the frames and bytes through a set of links, in both
// directions.
type linkStats struct {
	framesSent, bytesSent, framesRecv, bytesRecv atomic.Uint64
}

func (s *linkStats) bytes() uint64 { return s.bytesSent.Load() + s.bytesRecv.Load() }

// frameTap observes frames on a traced link. sent runs after each Send
// with the call's start and end; recv after each Recv returns.
type frameTap interface {
	active() bool
	sent(frame []byte, start, end time.Time)
	recv(frame []byte, at time.Time)
}

// benchLink is the benchmark's wrapper around a session link.
type benchLink struct {
	transport.Link
	st  *linkStats
	tap frameTap // nil: counters only
}

// wrapLink is the production wrapper (run.wrap).
func wrapLink(l transport.Link, st *linkStats, tap frameTap) transport.Link {
	return &benchLink{Link: l, st: st, tap: tap}
}

// RoutesReplay forwards the wrapped link's directed-answer capability.
// Embedding the Link interface hides the concrete link's methods; without
// this the engines would answer digests by broadcast and the benchmark
// would silently measure a different protocol (checkReplayRouting catches
// that).
func (l *benchLink) RoutesReplay() bool {
	rr, ok := l.Link.(transport.ReplayRouter)
	return ok && rr.RoutesReplay()
}

func (l *benchLink) Send(frame []byte) error {
	traced := l.tap != nil && l.tap.active()
	var start time.Time
	if traced {
		start = time.Now()
	}
	err := l.Link.Send(frame)
	if err != nil {
		return err
	}
	l.st.framesSent.Add(1)
	l.st.bytesSent.Add(uint64(len(frame)))
	if traced {
		l.tap.sent(frame, start, time.Now())
	}
	return nil
}

func (l *benchLink) Recv() ([]byte, error) {
	frame, err := l.Link.Recv()
	if err != nil {
		return frame, err
	}
	l.st.framesRecv.Add(1)
	l.st.bytesRecv.Add(uint64(len(frame)))
	if l.tap != nil && l.tap.active() {
		l.tap.recv(frame, time.Now())
	}
	return frame, nil
}

// frameContent is what a traced link learns from one frame.
type frameContent struct {
	to   treedoc.SiteID      // directed replay target, 0 for a broadcast frame
	ops  *transport.OpsFrame // the ops frame carried, or nil
	msgs []core.Op           // its ops, in frame order
	snap bool                // a snapshot or snapshot chunk
}

// decodeFrame decodes a frame with the wire codec the engines use,
// unwrapping a directed replay.
func decodeFrame(frame []byte) (frameContent, error) {
	var fc frameContent
	v, err := transport.DecodeFrame(frame)
	if err != nil {
		return fc, fmt.Errorf("perfbench: decode frame: %w", err)
	}
	if rf, ok := v.(*transport.ReplayFrame); ok {
		fc.to = rf.To
		if v, err = transport.DecodeFrame(rf.Inner); err != nil {
			return fc, fmt.Errorf("perfbench: decode replay: %w", err)
		}
	}
	switch f := v.(type) {
	case *transport.OpsFrame:
		fc.ops = f
		fc.msgs = make([]core.Op, 0, len(f.Msgs))
		for _, m := range f.Msgs {
			if op, ok := m.Payload.(core.Op); ok {
				fc.msgs = append(fc.msgs, op)
			}
		}
	case *transport.SnapFrame, *transport.SnapChunkFrame:
		fc.snap = true
	}
	return fc, nil
}

// codecProbe times the wire codec on frames a traced link carries: each
// ops frame is decoded again and re-encoded, outside the engines.
type codecProbe struct {
	mu         sync.Mutex
	encNs      float64 // guarded by mu
	decNs      float64 // guarded by mu
	ops        float64 // guarded by mu
	opsFrames  float64 // guarded by mu
	bytes      float64 // guarded by mu
	decodeErrs int     // guarded by mu
}

// observe decodes frame, times the decode and a re-encode of its ops, and
// returns what it carried.
func (c *codecProbe) observe(frame []byte) frameContent {
	t0 := time.Now()
	fc, err := decodeFrame(frame)
	dec := time.Since(t0)
	var enc time.Duration
	if err == nil && fc.ops != nil {
		t1 := time.Now()
		_, _ = transport.EncodeOps(fc.ops.Msgs) // a frame that decoded re-encodes
		enc = time.Since(t1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.decodeErrs++
		return fc
	}
	if n := len(fc.msgs); n > 0 {
		c.decNs += float64(dec)
		c.encNs += float64(enc)
		c.ops += float64(n)
		c.opsFrames++
		c.bytes += float64(len(frame))
	}
	return fc
}

// report writes the codec.* and engine.ops_per_frame rows.
func (c *codecProbe) report(out map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ops == 0 {
		return
	}
	out["codec.encode_ns_per_op"] = c.encNs / c.ops
	out["codec.decode_ns_per_op"] = c.decNs / c.ops
	out["codec.bytes_per_op"] = c.bytes / c.ops
	out["engine.ops_per_frame"] = c.ops / c.opsFrames
}

// engineCounters sums the engines' counters into the engine.* rows.
func engineCounters(out map[string]float64, engines []*transport.Engine) {
	var s transport.EngineStats
	for _, e := range engines {
		st := e.Stats()
		s.DigestsSent += st.DigestsSent
		s.DigestsSuppressed += st.DigestsSuppressed
		s.ReplayOps += st.ReplayOps
		s.ReplayBytes += st.ReplayBytes
		s.SnapshotsInstalled += st.SnapshotsInstalled
		s.Drops += st.Drops
	}
	out["engine.digests_sent"] += float64(s.DigestsSent)
	out["engine.digests_suppressed"] += float64(s.DigestsSuppressed)
	out["engine.replay_ops"] += float64(s.ReplayOps)
	out["engine.replay_bytes"] += float64(s.ReplayBytes)
	out["engine.snapshots_installed"] += float64(s.SnapshotsInstalled)
	out["engine.drops"] += float64(s.Drops)
}

// hubCounters writes the hub.* counter rows.
func hubCounters(out map[string]float64, s transport.HubStats) {
	out["hub.relays"] = float64(s.Relays)
	out["hub.drops"] = float64(s.Drops)
	out["hub.replay_routes"] = float64(s.ReplayRoutes)
	out["hub.replay_fallbacks"] = float64(s.ReplayFallbacks)
	out["hub.sync_batch_frames"] = float64(s.SyncBatchFrames)
	out["hub.sync_batch_entries"] = float64(s.SyncBatchEntries)
}

// linkCounters writes the link.* counter rows.
func linkCounters(out map[string]float64, s *linkStats) {
	out["link.frames_sent"] = float64(s.framesSent.Load())
	out["link.bytes_sent"] = float64(s.bytesSent.Load())
	out["link.frames_recv"] = float64(s.framesRecv.Load())
	out["link.bytes_recv"] = float64(s.bytesRecv.Load())
}

// checkReplayRouting fails unless the hub routed directed answers and
// never fell back to broadcasting one: a link wrapper that hides the
// ReplayRouter capability turns every answer into a broadcast, and the
// benchmark would measure that protocol instead.
func checkReplayRouting(s transport.HubStats) error {
	if s.ReplayRoutes == 0 || s.ReplayFallbacks > 0 {
		return fmt.Errorf("perfbench: hub routed %d directed answers with %d broadcast fallbacks; "+
			"a link wrapper is hiding the ReplayRouter capability", s.ReplayRoutes, s.ReplayFallbacks)
	}
	return nil
}
