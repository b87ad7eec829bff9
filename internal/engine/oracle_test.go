package engine

import (
	"fmt"

	"repro/internal/core"
)

// This file holds the scheduler's test oracles. They reach the engine
// through Config.drain, which production code leaves nil.

// FullRescan returns cfg with the dirty-set drain replaced by the
// full-rescan oracle.
func FullRescan(cfg Config) Config {
	cfg.drain = (*Instance).evaluateFullRescan
	return cfg
}

// VerifiedScheduler returns cfg with a read-only full-rescan probe run
// after every dirty-set drain; the probe panics if it finds progress the
// worklist missed. A cfg that already runs the full-rescan oracle is
// returned unchanged.
func VerifiedScheduler(cfg Config) Config {
	if cfg.drain != nil {
		return cfg
	}
	cfg.drain = func(i *Instance) {
		i.drainDirty()
		i.verifyFixedPoint()
	}
	return cfg
}

// evaluateFullRescan is the pre-index strategy: satisfaction passes
// over every run until a fixed point, O(tasks) per event. It is the
// oracle the dirty-set scheduler is verified against.
func (i *Instance) evaluateFullRescan() {
	// State transitions feed the worklist even when this strategy ignores
	// it; drop the entries so the map stays bounded.
	clear(i.dirty)
	i.dirtyHeap = i.dirtyHeap[:0]
	progress := true
	for progress {
		progress = false
		for _, path := range i.order {
			r, ok := i.runs[path]
			if !ok {
				continue
			}
			i.scans.Add(1)
			if !i.active(r) {
				continue
			}
			switch {
			case r.st.State == RunWaiting:
				if i.trySatisfy(r) {
					progress = true
				}
			case r.st.State == RunExecuting && r.task.Compound:
				if i.tryCompoundOutputs(r) {
					progress = true
				}
			}
		}
	}
}

// verifyFixedPoint is the differential probe VerifiedScheduler enables:
// after a dirty-set drain it runs a read-only full-rescan
// satisfiability probe and panics if the probe finds progress the
// worklist missed — i.e. the two schedulers would not have reached the
// same fixed point.
func (i *Instance) verifyFixedPoint() {
	for _, path := range i.order {
		r, ok := i.runs[path]
		if !ok || !i.active(r) {
			continue
		}
		switch {
		case r.st.State == RunWaiting:
			if r.task == i.root && !i.meta.Started {
				// A not-yet-started root waits for the client's Start,
				// not for dependency satisfaction (see trySatisfy).
				continue
			}
			if len(r.task.InputSets) == 0 {
				panic(fmt.Sprintf("scheduler divergence: %s has no input sets and should have started", path))
			}
			for _, set := range r.task.InputSets {
				if _, ok := i.satisfiedSet(r, set); ok {
					panic(fmt.Sprintf("scheduler divergence: %s input set %q satisfiable at quiescence", path, set.Name))
				}
			}
		case r.st.State == RunExecuting && r.task.Compound:
			for _, ob := range r.task.Outputs {
				if ob.Output.Kind == core.Mark && r.st.MarksEmitted[ob.Output.Name] {
					continue
				}
				if _, ok := i.satisfiedOutput(r, ob); ok {
					panic(fmt.Sprintf("scheduler divergence: %s output %q satisfiable at quiescence", path, ob.Output.Name))
				}
			}
		}
	}
}
