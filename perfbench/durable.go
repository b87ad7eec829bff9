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
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/workload"
)

// walNode is one engine over a WALStore: the durable-chain deployment,
// and the recover-restart one before and after its restart.
type walNode struct {
	ws   *store.WALStore
	preg *persist.Registry
	eng  *engine.Engine
	reg  *obs.Registry
}

// openWAL opens dir's WAL store, through p's file probe when traced.
func openWAL(dir string, p *probes) (*store.WALStore, error) {
	if p != nil {
		return store.NewWALStoreWith(dir, p.files)
	}
	return store.NewWALStore(dir)
}

// registryOver builds the persistent-object registry over st. Traced,
// txn.Manager and persist.Registry get separate probes over the same
// store, which splits the log records from the state records.
func registryOver(st store.Store, p *probes) *persist.Registry {
	if p == nil {
		return persist.NewRegistry(st, txn.NewManager(st), nil)
	}
	return persist.NewRegistry(newStoreProbe(st, &p.state), txn.NewManager(newStoreProbe(st, &p.log)), nil)
}

// countedImpls binds the workload's pass-through implementations and
// counts how often the "stage" code runs (the re-execution checks).
func countedImpls(execs *atomic.Int64) *registry.Registry {
	impls := registry.New()
	workload.Bind(impls)
	stage, _ := impls.Lookup("stage")
	impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		execs.Add(1)
		return stage(ctx)
	})
	return impls
}

func newWALNode(ws *store.WALStore, p *probes, execs *atomic.Int64) *walNode {
	n := &walNode{ws: ws, reg: obs.NewRegistry()}
	n.preg = registryOver(ws, p)
	n.eng = engine.New(n.preg, countedImpls(execs), engine.Config{
		Metrics: n.reg,
		Tracer:  obs.NewTracer(obs.DefaultTraceCapacity),
	})
	return n
}

func (n *walNode) close() error {
	n.eng.Close()
	return n.ws.Close()
}

func compileSource(name string, src []byte) (*core.Schema, error) {
	return sema.CompileSource(name, src)
}

// restartWAL reopens dir as a coordinator coming back would: open the
// store, roll the transaction log forward, and re-materialize every
// persisted instance. It returns the restarted node and its step times.
func restartWAL(dir string, p *probes, execs *atomic.Int64) (*walNode, restartTimes, error) {
	var rt restartTimes
	start := time.Now()
	ws, err := openWAL(dir, p)
	if err != nil {
		return nil, rt, fmt.Errorf("reopen WAL: %w", err)
	}
	rt.open = time.Since(start)
	n := newWALNode(ws, p, execs)
	rt.txnA = p.take(n.reg, nil, nil)
	start = time.Now()
	if _, err := n.preg.Recover(); err != nil {
		n.close()
		return nil, rt, fmt.Errorf("txn recover: %w", err)
	}
	rt.txnRecover = time.Since(start)
	rt.txnB = p.take(n.reg, nil, nil)
	compile := compileSource
	if p != nil {
		compile = timedCompiler(&p.compile, compileSource)
	}
	rt.remA = p.take(n.reg, nil, nil)
	start = time.Now()
	if _, err := n.eng.RecoverMatching(compile, nil); err != nil {
		n.close()
		return nil, rt, fmt.Errorf("recover instances: %w", err)
	}
	rt.rematerialize = time.Since(start)
	rt.remB = p.take(n.reg, nil, nil)
	return n, rt, nil
}

// runLocal runs one instance to completion on eng and stops its
// controller, as an embedding application would.
func runLocal(eng *engine.Engine, schema *core.Schema, id string) error {
	inst, err := eng.Instantiate(id, schema, "")
	if err != nil {
		return err
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	res, err := inst.Wait(ctx)
	if err != nil {
		return fmt.Errorf("instance %s: %w", id, err)
	}
	if st := inst.Status(); st != engine.StatusCompleted || res.Output != "done" {
		return fmt.Errorf("instance %s settled %v with outcome %q, want completed/done", id, st, res.Output)
	}
	inst.Stop()
	return nil
}

// chainLen is the stage count of the durable workloads' instances.
const chainLen = 8

type durableSize struct{ warm, timed int }

func durableSizes(smoke bool) durableSize {
	if smoke {
		return durableSize{warm: 4, timed: 16}
	}
	return durableSize{warm: 40, timed: 400}
}

// durableRound is one durable-chain round: boot an engine over a fresh
// fsync-on WAL, run the timed chains, then restart from the WAL and
// check that every acknowledged instance came back completed.
func durableRound(rc *runCtx) (round, error) {
	sz := durableSizes(rc.smoke)
	var p *probes
	if rc.traced {
		p = &probes{files: &fileProbe{}}
	}
	dir := rc.roundDir("durable")
	defer os.RemoveAll(dir)
	var execs atomic.Int64
	var r round

	boot := func(dir string) (*walNode, *core.Schema, error) {
		ws, err := openWAL(dir, p)
		if err != nil {
			return nil, nil, err
		}
		ws.SetSync(true)
		n := newWALNode(ws, p, &execs)
		schema, err := compileSource("chain", []byte(workload.Chain(chainLen)))
		if err != nil {
			n.close()
			return nil, nil, err
		}
		return n, schema, nil
	}
	var err error
	r.setups, err = sampleBoots(rc, func(i int) (func(), error) {
		d := fmt.Sprintf("%s-boot%d", dir, i)
		n, _, err := boot(d)
		if err != nil {
			return nil, err
		}
		return func() { n.close(); os.RemoveAll(d) }, nil
	})
	if err != nil {
		return r, err
	}
	runtime.GC()
	start := time.Now()
	n, schema, err := boot(dir)
	if err != nil {
		return r, err
	}
	r.setups = append(r.setups, time.Since(start))

	warm := rc.newIDs("w", sz.warm)
	timed := rc.newIDs("dc", sz.timed)
	runOne := func(_ int, id string) error { return runLocal(n.eng, schema, id) }
	r.attempted += len(warm)
	if _, _, err := closedLoop(warm, runOne); err != nil {
		n.close()
		r.failed = len(warm)
		return r, err
	}
	runtime.GC()
	a := p.take(n.reg, nil, nil)
	syncs, alloc := n.ws.Syncs(), totalAlloc()
	r.attempted += len(timed)
	lat, elapsed, err := closedLoop(timed, runOne)
	r.allocKB = float64(totalAlloc()-alloc) / 1024 / float64(len(timed))
	r.fsyncs = float64(n.ws.Syncs()-syncs) / float64(len(timed))
	b := p.take(n.reg, nil, nil)
	if err != nil {
		n.close()
		r.failed = len(timed)
		return r, err
	}
	r.counts = serverCounts(a, b, len(timed), r.fsyncs)
	r.lat, r.elapsed = lat, elapsed
	r.heapMB = heapAfterGC()
	if err := n.close(); err != nil {
		return r, err
	}

	all := append(append([]string(nil), warm...), timed...)
	if got, want := execs.Load(), int64(chainLen*len(all)); got != want {
		return r, fmt.Errorf("stage executions %d, want %d (one per task)", got, want)
	}
	runtime.GC()
	rs := p.take(nil, nil, nil)
	start = time.Now()
	n2, rt, err := restartWAL(dir, p, &execs)
	if err != nil {
		return r, err
	}
	r.recover = time.Since(start)
	re := p.take(n2.reg, nil, nil)
	defer n2.close()
	if bad, err := verifyCompleted(n2.eng, all); err != nil {
		r.failed += bad
		return r, fmt.Errorf("after restart: %w", err)
	}
	if got := len(n2.eng.Instances()); got != len(all) {
		return r, fmt.Errorf("restart re-materialized %d instances, want %d", got, len(all))
	}
	if got, want := execs.Load(), int64(chainLen*len(all)); got != want {
		return r, fmt.Errorf("stage executions %d after restart, want %d (completed tasks must not run again)", got, want)
	}
	if rc.traced {
		r.layers = map[string]float64{}
		serveLayers(a, b, len(timed), meanMs(lat), r.layers)
		restartLayers(rs, re, rt, true, r.layers)
	}
	return r, nil
}
