package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// parkDelay is the delay a parked instance waits on: far longer than
// any run, so the restart finds every parked instance mid-delay.
const parkDelay = time.Hour

type recoverSize struct{ completed, parked, warm, timed int }

func recoverSizes(smoke bool) recoverSize {
	if smoke {
		return recoverSize{completed: 12, parked: 4, warm: 2, timed: 8}
	}
	return recoverSize{completed: 1000, parked: 250, warm: 20, timed: 200}
}

// runParked starts a timer chain and returns once its first delay is
// armed; the instance stays live, waiting.
func runParked(eng *engine.Engine, schema *core.Schema, id string) error {
	inst, err := eng.Instantiate(id, schema, "")
	if err != nil {
		return err
	}
	if err := inst.Start("main", workload.TimerSeed()); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	_, err = inst.WaitEvent(ctx, func(ev engine.Event) bool { return ev.Kind == engine.EventTimerArmed })
	return err
}

// recoverRound is one recover-restart round. Set-up writes a history of
// completed chains and parked timer chains (fsync off: only the restart
// is timed) and stops the engine. The timed restart reopens the WAL
// with fsync on and re-materializes everything; the restarted engine
// then serves fresh chains, which gives the post-restart latency.
func recoverRound(rc *runCtx) (round, error) {
	sz := recoverSizes(rc.smoke)
	var p *probes
	if rc.traced {
		p = &probes{files: &fileProbe{}}
	}
	dir := rc.roundDir("recover")
	defer os.RemoveAll(dir)
	var execs atomic.Int64
	var r round

	// The seed decides which history slots hold parked instances.
	history := rc.newIDs("h", sz.completed+sz.parked)
	parked := make(map[string]bool, sz.parked)
	for _, i := range rc.rng.Perm(len(history))[:sz.parked] {
		parked[history[i]] = true
	}
	var completed, parkedIDs []string
	for _, id := range history {
		if parked[id] {
			parkedIDs = append(parkedIDs, id)
		} else {
			completed = append(completed, id)
		}
	}

	runtime.GC()
	start := time.Now()
	ws, err := openWAL(dir, nil)
	if err != nil {
		return r, err
	}
	ws.SetSync(false)
	n := newWALNode(ws, nil, &execs)
	chain, err := compileSource("chain", []byte(workload.Chain(chainLen)))
	if err != nil {
		n.close()
		return r, err
	}
	timer, err := compileSource("parked", []byte(workload.TimerChain(2, parkDelay)))
	if err != nil {
		n.close()
		return r, err
	}
	r.attempted += len(history)
	_, _, err = closedLoop(history, func(_ int, id string) error {
		if parked[id] {
			return runParked(n.eng, timer, id)
		}
		return runLocal(n.eng, chain, id)
	})
	if cerr := n.close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.failed = len(history)
		return r, err
	}
	r.setups = []time.Duration{time.Since(start)}
	if got, want := execs.Load(), int64(chainLen*len(completed)); got != want {
		return r, fmt.Errorf("history stage executions %d, want %d", got, want)
	}

	runtime.GC()
	rs := p.take(nil, nil, nil)
	alloc := totalAlloc()
	start = time.Now()
	n2, rt, err := restartWAL(dir, p, &execs)
	if err != nil {
		return r, err
	}
	r.recover = time.Since(start)
	r.allocKB = float64(totalAlloc()-alloc) / 1024 / float64(len(history))
	re := p.take(n2.reg, nil, nil)
	defer n2.close()
	r.heapMB = heapAfterGC()

	if got := len(n2.eng.Instances()); got != len(history) {
		return r, fmt.Errorf("restart re-materialized %d instances, want %d", got, len(history))
	}
	if bad, err := verifyCompleted(n2.eng, completed); err != nil {
		r.failed += bad
		return r, fmt.Errorf("after restart: %w", err)
	}
	for _, id := range parkedIDs {
		inst, err := n2.eng.Instance(id)
		if err != nil {
			return r, err
		}
		if st := inst.Status(); st != engine.StatusRunning {
			return r, fmt.Errorf("parked instance %s recovered as %v, want running", id, st)
		}
	}
	if got := n2.eng.Timers().Pending(); got != len(parkedIDs) {
		return r, fmt.Errorf("restart armed %d timers, want one per parked instance (%d)", got, len(parkedIDs))
	}
	if got := n2.reg.Total(obs.MEngineTimerArms); got != int64(len(parkedIDs)) {
		return r, fmt.Errorf("restart re-armed %d timers, want %d", got, len(parkedIDs))
	}
	if got, want := execs.Load(), int64(chainLen*len(completed)); got != want {
		return r, fmt.Errorf("stage executions %d after restart, want %d (completed tasks must not run again)", got, want)
	}

	// Service after the restart: fresh chains on the restarted engine.
	warm := rc.newIDs("w", sz.warm)
	timed := rc.newIDs("rr", sz.timed)
	runOne := func(_ int, id string) error { return runLocal(n2.eng, chain, id) }
	r.attempted += len(warm) + len(timed)
	if _, _, err := closedLoop(warm, runOne); err != nil {
		r.failed += len(warm)
		return r, err
	}
	runtime.GC()
	a := p.take(n2.reg, nil, nil)
	syncs := n2.ws.Syncs()
	lat, elapsed, err := closedLoop(timed, runOne)
	r.fsyncs = float64(n2.ws.Syncs()-syncs) / float64(len(timed))
	b := p.take(n2.reg, nil, nil)
	if err != nil {
		r.failed += len(timed)
		return r, err
	}
	r.counts = serverCounts(a, b, len(timed), r.fsyncs)
	r.lat, r.elapsed = lat, elapsed
	if got, want := execs.Load(), int64(chainLen*(len(completed)+len(warm)+len(timed))); got != want {
		return r, fmt.Errorf("stage executions %d after serving, want %d", got, want)
	}
	if rc.traced {
		r.layers = map[string]float64{}
		serveLayers(a, b, len(timed), meanMs(lat), r.layers)
		restartLayers(rs, re, rt, true, r.layers)
	}
	return r, nil
}
