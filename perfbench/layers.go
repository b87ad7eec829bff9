package main

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// reportedLayers is the per-layer metric set of the traced run's JSON
// line. Every workload reports all of them; a time in this list is
// exercised by every workload. The times of layers that only some
// workloads use (fsync, store open, the execsvc verbs, taskexec
// dispatch and execute) are printed in the report lines of the
// workloads that use them (see README.md).
var reportedLayers = []string{
	"store.fsyncs_per_inst",
	"store.write_kb_per_inst",
	"store.apply_calls_per_inst",
	"store.apply_ms_per_inst",
	"txn.log_records_per_inst",
	"txn.log_kb_per_inst",
	"persist.state_records_per_inst",
	"persist.state_kb_per_inst",
	"engine.drains_per_inst",
	"engine.flush_ms_per_inst",
	"engine.activations_per_inst",
	"engine.unattributed_ms_per_inst",
	"orb.naming_calls_per_inst",
	"orb.coord_calls_per_inst",
	"orb.exec_calls_per_inst",
	"orb.repo_calls_per_inst",
	"orb.kb_per_inst",
	"shard.fence_checks_per_inst",
	"shard.ownership_checks_per_inst",
	"shard.lease_renewals",
	"script.compile_calls_per_inst",
	"txn.recover_ms",
	"store.list_calls",
	"store.list_ms",
	"store.read_ms",
	"script.compile_calls",
	"script.compile_ms",
	"engine.rematerialize_ms",
	"timers.rearms",
}

func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "kb_"):
		return "KiB"
	case strings.Contains(name, "_ms"):
		return "ms"
	default:
		return "count"
	}
}

// probes is the traced run's instrumentation of one deployment. Each
// field is filled by the probe wrapped around the matching seam.
type probes struct {
	files    *fileProbe // nil where the deployment has no WAL
	state    storeTally // store calls of persist.Registry
	log      storeTally // store calls of txn.Manager
	compile  tally      // schema compiles (recovery and execsvc schema source)
	dispatch tally      // engine RemoteInvoker
	execute  tally      // executor-side implementations
	verbs    [3]tally   // ShardedClient Instantiate, Start, WaitSettled
	naming   connProbe  // client -> naming service
	coord    connProbe  // client -> coordinators
	exec     connProbe  // coordinators -> executors
	repo     connProbe  // coordinators -> repository
	fence    atomic.Int64
	own      atomic.Int64
}

// snapshot is every counter a phase is measured by, read at one instant.
type snapshot struct {
	sync, write                   tallySnap
	stateApply, logApply          tallySnap
	list, read                    tallySnap
	compile, dispatch, execute    tallySnap
	verbs                         [3]tallySnap
	naming, coord, exec, repo     [2]int64
	fence, own                    int64
	drains, activations, timerArm int64
	flushSec                      float64
	renewals                      int64
	// Server-side counts, read in untraced runs too.
	execRequests, executions int64
}

func connSnap(c *connProbe) [2]int64 { return [2]int64{c.calls.Load(), c.bytes.Load()} }

// take reads p (nil-safe: untraced runs have no probes) and the
// registries of the engines, the lease managers and the executors (any
// of which may be nil).
func (p *probes) take(eng, shardReg, execReg *obs.Registry) snapshot {
	s := snapshot{
		execRequests: eng.Total(obs.MExecRequests),
		executions:   execReg.Total(obs.MTaskExecutions),
		drains:       eng.Histogram(obs.MEngineDrainRuns, obs.DefSizeBuckets).Count(),
		flushSec:     eng.Histogram(obs.MEngineFlushSeconds, nil).Sum(),
		activations:  eng.Total(obs.MEngineActivations),
		timerArm:     eng.Total(obs.MEngineTimerArms),
		renewals:     shardReg.Total(obs.MShardLeaseRenewals),
	}
	if p == nil {
		return s
	}
	if p.files != nil {
		s.sync, s.write = p.files.sync.snap(), p.files.write.snap()
	}
	s.stateApply, s.logApply = p.state.apply.snap(), p.log.apply.snap()
	s.list = p.state.list.snap().add(p.log.list.snap())
	s.read = p.state.read.snap().add(p.log.read.snap())
	s.compile, s.dispatch, s.execute = p.compile.snap(), p.dispatch.snap(), p.execute.snap()
	for i := range p.verbs {
		s.verbs[i] = p.verbs[i].snap()
	}
	s.naming, s.coord, s.exec, s.repo = connSnap(&p.naming), connSnap(&p.coord), connSnap(&p.exec), connSnap(&p.repo)
	s.fence, s.own = p.fence.Load(), p.own.Load()
	return s
}

// serveLayers turns the difference of two snapshots around a timed
// serving phase of n instances into per-instance layer metrics.
// meanLatMs is the phase's mean instance latency: the unattributed
// remainder is what is left of it after the store and remote-dispatch
// time every instance waited for, so the printed parts add up to it.
func serveLayers(a, b snapshot, n int, meanLatMs float64, out map[string]float64) {
	per := func(v float64) float64 { return v / float64(n) }
	apply := b.stateApply.sub(a.stateApply).add(b.logApply.sub(a.logApply))
	logA, stateA := b.logApply.sub(a.logApply), b.stateApply.sub(a.stateApply)
	sync, write := b.sync.sub(a.sync), b.write.sub(a.write)
	dispatch, execute := b.dispatch.sub(a.dispatch), b.execute.sub(a.execute)
	compile := b.compile.sub(a.compile)

	out["store.fsyncs_per_inst"] = per(float64(sync.calls))
	out["store.write_kb_per_inst"] = per(float64(write.bytes) / 1024)
	out["store.apply_calls_per_inst"] = per(float64(apply.calls))
	out["store.apply_ms_per_inst"] = per(apply.ms())
	out["txn.log_records_per_inst"] = per(float64(logA.items))
	out["txn.log_kb_per_inst"] = per(float64(logA.bytes) / 1024)
	out["persist.state_records_per_inst"] = per(float64(stateA.items))
	out["persist.state_kb_per_inst"] = per(float64(stateA.bytes) / 1024)
	out["engine.drains_per_inst"] = per(float64(b.drains - a.drains))
	out["engine.flush_ms_per_inst"] = per((b.flushSec - a.flushSec) * 1e3)
	out["engine.activations_per_inst"] = per(float64(b.activations - a.activations))
	out["engine.unattributed_ms_per_inst"] = meanLatMs - per(apply.ms()) - per(dispatch.ms())
	out["orb.naming_calls_per_inst"] = per(float64(b.naming[0] - a.naming[0]))
	out["orb.coord_calls_per_inst"] = per(float64(b.coord[0] - a.coord[0]))
	out["orb.exec_calls_per_inst"] = per(float64(b.exec[0] - a.exec[0]))
	out["orb.repo_calls_per_inst"] = per(float64(b.repo[0] - a.repo[0]))
	bytes := (b.naming[1] - a.naming[1]) + (b.coord[1] - a.coord[1]) + (b.exec[1] - a.exec[1]) + (b.repo[1] - a.repo[1])
	out["orb.kb_per_inst"] = per(float64(bytes) / 1024)
	out["shard.fence_checks_per_inst"] = per(float64(b.fence - a.fence))
	out["shard.ownership_checks_per_inst"] = per(float64(b.own - a.own))
	out["shard.lease_renewals"] = float64(b.renewals - a.renewals)
	out["script.compile_calls_per_inst"] = per(float64(compile.calls))

	// Report lines only: the mean latency the attribution splits, and
	// the times of layers only some workloads exercise.
	out["latency_mean_ms"] = meanLatMs
	if sync.calls > 0 {
		out["store.fsync_ms_per_inst"] = per(sync.ms())
	}
	if compile.calls > 0 {
		out["script.compile_ms_per_inst"] = per(compile.ms())
	}
	if dispatch.calls > 0 {
		out["taskexec.dispatch_ms"] = per(dispatch.ms())
		out["taskexec.execute_ms"] = per(execute.ms())
	}
	if v := b.verbs[0].sub(a.verbs[0]); v.calls > 0 {
		out["execsvc.instantiate_ms"] = per(v.ms())
		out["execsvc.start_ms"] = per(b.verbs[1].sub(a.verbs[1]).ms())
		out["execsvc.wait_ms"] = per(b.verbs[2].sub(a.verbs[2]).ms())
	}
}

// serverCounts are the per-instance counts an untraced run reads from
// the fsync counter of the WAL store and the request counters of the
// execution service and the executors, with no probe in the path. The
// traced run's probes must count the same.
func serverCounts(a, b snapshot, n int, fsyncs float64) map[string]float64 {
	per := func(v int64) float64 { return float64(v) / float64(n) }
	out := map[string]float64{
		"orb.coord_calls_per_inst": per(b.execRequests - a.execRequests),
		"orb.exec_calls_per_inst":  per(b.executions - a.executions),
	}
	if fsyncs >= 0 {
		out["store.fsyncs_per_inst"] = fsyncs
	}
	return out
}

// restartTimes are the wall times of a restart's steps.
type restartTimes struct {
	open, txnRecover, rematerialize time.Duration
	// Snapshots around the txn recovery and the re-materialization, for
	// their self time (their wall minus the store and compile calls made
	// inside them).
	txnA, txnB, remA, remB snapshot
}

// restartLayers turns a restart's snapshots into per-layer metrics.
func restartLayers(a, b snapshot, rt restartTimes, hasWAL bool, out map[string]float64) {
	inner := func(x, y snapshot) float64 {
		return y.list.sub(x.list).ms() + y.read.sub(x.read).ms() +
			y.stateApply.sub(x.stateApply).ms() + y.logApply.sub(x.logApply).ms() + y.compile.sub(x.compile).ms()
	}
	out["txn.recover_ms"] = ms(rt.txnRecover) - inner(rt.txnA, rt.txnB)
	out["store.list_calls"] = float64(b.list.calls - a.list.calls)
	out["store.list_ms"] = b.list.sub(a.list).ms()
	out["store.read_ms"] = b.read.sub(a.read).ms()
	out["script.compile_calls"] = float64(b.compile.calls - a.compile.calls)
	out["script.compile_ms"] = b.compile.sub(a.compile).ms()
	out["engine.rematerialize_ms"] = ms(rt.rematerialize) - inner(rt.remA, rt.remB)
	out["timers.rearms"] = float64(b.timerArm - a.timerArm)
	if hasWAL {
		out["store.open_ms"] = ms(rt.open)
	}
}
