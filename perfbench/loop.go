package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// This file holds what the workloads share: the closed client loop,
// the seeded instance IDs, the memory readings and the completion check.

// clients is the closed loop's client count: one per vCPU of the 2-vCPU
// machines the benchmark is sized for.
const clients = 2

// settleTimeout bounds one instance; nothing in the workloads sleeps,
// so reaching it means the deployment is stuck.
const settleTimeout = time.Minute

// closedLoop runs one instance per ID with `clients` concurrent clients,
// each sending its next instance when the previous one settled. It
// returns each instance's latency (indexed like ids), the wall time, and
// the first error.
func closedLoop(ids []string, runOne func(client int, id string) error) ([]time.Duration, time.Duration, error) {
	lat := make([]time.Duration, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				start := time.Now()
				if err := runOne(c, ids[i]); err != nil {
					errs[c] = err
					return
				}
				lat[i] = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return lat, time.Since(begin), errors.Join(errs...)
}

// newIDs draws n instance IDs from the run's seed. The random part
// decides the partition an ID hashes to; the fixed width keeps every
// record the same size whatever the seed.
func (rc *runCtx) newIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%08x-%06d", prefix, rc.rng.Uint32(), i)
	}
	return ids
}

// heapAfterGC forces a collection and returns the live heap in MiB.
func heapAfterGC() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// verifyCompleted waits for every ID to be live on eng and settled
// Completed with outcome done, returning how many were not.
func verifyCompleted(eng *engine.Engine, ids []string) (int, error) {
	bad := 0
	var first error
	for _, id := range ids {
		err := func() error {
			inst, err := eng.Instance(id)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), settleTimeout)
			defer cancel()
			res, err := inst.Wait(ctx)
			if err != nil {
				return fmt.Errorf("instance %s: %w", id, err)
			}
			if st := inst.Status(); st != engine.StatusCompleted || res.Output != "done" {
				return fmt.Errorf("instance %s recovered as %v with outcome %q, want completed/done", id, st, res.Output)
			}
			return nil
		}()
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}

func meanMs(lat []time.Duration) float64 {
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return ms(sum) / float64(len(lat))
}
