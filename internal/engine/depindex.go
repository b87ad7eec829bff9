package engine

import "repro/internal/core"

// This file implements the dependency-indexed dirty-set scheduler. At
// instance build time (and after every reconfiguration) the schema is
// walked once to compute a reverse-dependency index: for each producer
// task path, the consumer task paths whose input-set bindings or
// compound-output mappings hold a source referencing it. At run time,
// every observable state transition of a run enqueues only its indexed
// consumers onto a dirty worklist, and evaluate drains the worklist in
// schema-DFS declaration order — so one completion event costs
// O(consumers) instead of the legacy full rescan's O(tasks), while
// input-set and alternative selection stay bit-identical to the
// full-rescan oracle the differential tests run it against (see
// oracle_test.go).

// consumers lists the tasks whose dependencies reference one producer,
// split by the producer event that can create source availability.
type consumers struct {
	// onStart holds consumers with input-conditioned sources on the
	// producer (input sharing): they can only gain availability when the
	// producer consumes an input set.
	onStart []string
	// onOutput holds consumers with output-conditioned, unconditioned or
	// notification sources: they can gain availability when the producer
	// releases a mark, repeats, or terminates.
	onOutput []string
}

// rebuildDepIndex recomputes the reverse-dependency index from the
// current schema. Called by rebuildOrder (construction and
// reconfiguration), on the goroutine owning the run map.
func (i *Instance) rebuildDepIndex() {
	i.deps = make(map[string]*consumers, len(i.order))
	type edge struct {
		producer, consumer string
		onStart            bool
	}
	seen := make(map[edge]struct{})
	add := func(s *core.Source, consumer string) {
		e := edge{producer: s.Task.Path(), consumer: consumer, onStart: s.Cond == core.CondInput}
		if _, dup := seen[e]; dup {
			return
		}
		seen[e] = struct{}{}
		c := i.deps[e.producer]
		if c == nil {
			c = &consumers{}
			i.deps[e.producer] = c
		}
		if e.onStart {
			c.onStart = append(c.onStart, consumer)
		} else {
			c.onOutput = append(c.onOutput, consumer)
		}
	}
	i.root.Walk(func(t *core.Task) {
		consumer := t.Path()
		record := func(deps []*core.ObjectDep, nots []*core.NotificationDep) {
			for _, od := range deps {
				for _, s := range od.Sources {
					add(s, consumer)
				}
			}
			for _, nd := range nots {
				for _, s := range nd.Sources {
					add(s, consumer)
				}
			}
		}
		for _, set := range t.InputSets {
			record(set.Objects, set.Notifications)
		}
		for _, ob := range t.Outputs {
			record(ob.Objects, ob.Notifications)
		}
	})
}

// markDirty enqueues one task path for re-evaluation. Paths not in the
// current schema (stale consumers of a reconfigured-away producer) are
// dropped here; each map entry is mirrored by exactly one index in the
// worklist heap or the drain's deferred batch.
func (i *Instance) markDirty(path string) {
	if _, dup := i.dirty[path]; dup {
		return
	}
	idx, ok := i.orderIdx[path]
	if !ok {
		return
	}
	i.dirty[path] = struct{}{}
	i.heapPush(idx)
}

// markAllDirty enqueues every live run; used where dependencies change
// wholesale (recovery, reconfiguration).
func (i *Instance) markAllDirty() {
	for path := range i.runs {
		i.markDirty(path)
	}
}

// noteStarted enqueues the consumers that input-share with the run at
// path; called when that run consumes an input set.
func (i *Instance) noteStarted(path string) {
	if c := i.deps[path]; c != nil {
		for _, consumer := range c.onStart {
			i.markDirty(consumer)
		}
	}
}

// noteOutput enqueues the consumers whose output-conditioned,
// unconditioned or notification sources reference the run at path;
// called when that run releases a mark, repeats, or terminates.
func (i *Instance) noteOutput(path string) {
	if c := i.deps[path]; c != nil {
		for _, consumer := range c.onOutput {
			i.markDirty(consumer)
		}
	}
}

// drainDirty processes the dirty worklist in rounds that mirror the
// legacy full-rescan passes: within one round, paths are visited in
// ascending schema-DFS order, and paths dirtied at or before the current
// scan position wait for the next round (exactly the set a full pass
// would only reach on its next iteration). This keeps input-set and
// alternative selection — which depend on the order progress is applied —
// bit-identical to the full-rescan scheduler.
func (i *Instance) drainDirty() {
	for len(i.dirty) > 0 {
		pos := -1
		var deferred []int
		for len(i.dirtyHeap) > 0 {
			idx := i.heapPop()
			if idx <= pos {
				// Dirtied at or before the scan position by progress made
				// this round: a full pass would only reach it next pass.
				deferred = append(deferred, idx)
				continue
			}
			pos = idx
			delete(i.dirty, i.order[idx])
			i.evalRun(i.order[idx])
		}
		for _, idx := range deferred {
			i.heapPush(idx)
		}
	}
}

// heapPush and heapPop maintain the min-heap of schema-order indexes
// backing the dirty worklist.
func (i *Instance) heapPush(idx int) {
	h := append(i.dirtyHeap, idx)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
	i.dirtyHeap = h
}

func (i *Instance) heapPop() int {
	h := i.dirtyHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for c := 0; ; {
		s := c
		if l := 2*c + 1; l < n && h[l] < h[s] {
			s = l
		}
		if r := 2*c + 2; r < n && h[r] < h[s] {
			s = r
		}
		if s == c {
			break
		}
		h[c], h[s] = h[s], h[c]
		c = s
	}
	i.dirtyHeap = h
	return top
}

// evalRun applies one satisfaction check to the run at path, the same
// check a full-rescan pass applies to every run.
func (i *Instance) evalRun(path string) {
	r, ok := i.runs[path]
	if !ok {
		return // run was reset or reconfigured away after being enqueued
	}
	i.scans.Add(1)
	if !i.active(r) {
		return
	}
	switch {
	case r.st.State == RunWaiting:
		i.trySatisfy(r)
	case r.st.State == RunExecuting && r.task.Compound:
		i.tryCompoundOutputs(r)
	}
}
