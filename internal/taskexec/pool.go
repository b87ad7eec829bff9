package taskexec

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/timers"
)

// SetResolver maps a location name to the set of endpoint addresses
// currently serving it; usually a naming client's ResolveAll. The set is
// re-resolved on every dispatch, so membership changes (heartbeat
// expiry, re-registration at a new address) take effect immediately.
type SetResolver func(location string) ([]string, error)

// Balancing strategies for picking a member of a location's pool.
const (
	// BalanceRoundRobin rotates dispatches across the resolve set.
	BalanceRoundRobin = "roundrobin"
	// BalanceLeastInflight picks the member with the fewest dispatches
	// currently in flight (ties broken by resolve-set order).
	BalanceLeastInflight = "leastinflight"
	// BalanceHash starts the rotation at a member chosen by hashing the
	// activation's identity (instance, task path, attempt, iteration):
	// the same activation always lands on the same member regardless of
	// how concurrent dispatches interleave. Round-robin and
	// least-inflight both depend on dispatch arrival order, so they are
	// unusable where replay must be bit-identical — the deterministic
	// simulation harness (internal/sim) requires this strategy.
	BalanceHash = "hash"
)

// PoolConfig tunes the pool-aware dispatcher.
type PoolConfig struct {
	// Client is the per-endpoint orb client configuration (its Retries
	// bound same-endpoint transport retries; pool failover across members
	// is on top of them).
	Client orb.ClientConfig
	// Balance selects the member-picking strategy; default
	// BalanceRoundRobin.
	Balance string
	// BlacklistFor is how long a member that failed a connect or call is
	// deprioritised (tried only after every healthy member). Default 2s.
	BlacklistFor time.Duration
	// MaxFailover bounds how many distinct members one dispatch tries
	// before surfacing the failure to the engine's retry/abort mapping.
	// 0 tries every resolved member.
	MaxFailover int
	// ResolveCache caches a location's resolved member set for this
	// long, so dispatch rate is not capped by round-trips to a remote
	// naming service (one mutex-serialised RPC per dispatch otherwise).
	// A failed refresh falls back to the last known set — a naming
	// service restart does not stop dispatch to cached members. 0
	// disables caching (every dispatch re-resolves; right for
	// in-process resolvers). Keep it at or below the executors'
	// heartbeat interval so membership changes are still seen promptly.
	ResolveCache time.Duration
	// Clock paces blacklist expiry and the resolve cache. Default
	// timers.WallClock; the simulation harness injects its shared
	// timers.FakeClock so endpoint health moves with virtual time.
	Clock timers.Clock
	// Metrics receives the dispatcher's per-endpoint counters and
	// latency histograms. Default: a private registry (daemons pass
	// their scrape registry; the default keeps unwired invokers from
	// cross-talking through the process-global one).
	Metrics *obs.Registry
	// Tracer records dispatch (rpc) spans and imports the executor-side
	// execution spans returned in replies. Default obs.DefaultTracer().
	Tracer *obs.Tracer

	// now is the blacklist clock, derived from Clock.
	now func() time.Time
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Balance == "" {
		c.Balance = BalanceRoundRobin
	}
	if c.BlacklistFor == 0 {
		c.BlacklistFor = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = timers.WallClock{}
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer()
	}
	if c.now == nil {
		c.now = c.Clock.Now
	}
	return c
}

// endpoint is the per-address dispatch state: the cached client (nil
// after an eviction), the health view, and the dispatch instruments.
// The counters live in the pool's metrics registry (labelled by
// endpoint address) — Stats() is a snapshot view over them, and a
// pruned-then-recreated endpoint resumes its counts instead of
// resetting them.
type endpoint struct {
	addr             string
	client           *orb.Client
	mDispatched      *obs.Counter
	mFailures        *obs.Counter
	mInflight        *obs.Gauge
	blacklistedUntil time.Time
	// lastSeen is the last time a resolve set contained this address;
	// entries that drop out of every resolve set (executors restarted
	// at new ephemeral ports) are pruned once idle and stale, so a
	// long-lived dispatcher does not accumulate dead endpoints forever.
	lastSeen time.Time
}

// endpointEvictAfter is how long an endpoint may go unseen by any
// resolve set before an idle entry is pruned.
const endpointEvictAfter = 5 * time.Minute

// EndpointStats is one row of a pool observability snapshot.
type EndpointStats struct {
	Addr string
	// Dispatched counts activations sent to the endpoint (including ones
	// that subsequently failed).
	Dispatched int64
	// Failures counts connect/call failures observed at the endpoint.
	Failures int64
	// Inflight is the number of dispatches currently outstanding.
	Inflight int
	// Connected reports whether a client is cached for the endpoint
	// (false after a failure evicted it).
	Connected bool
	// Blacklisted reports whether the endpoint is currently
	// deprioritised.
	Blacklisted bool
}

// Stats returns a per-endpoint snapshot, sorted by address. It is a
// back-compat view over the pool's metrics registry: the counters
// themselves live there (taskexec_dispatches_total{endpoint=...} and
// friends), this just re-shapes the current endpoints' series.
func (inv *Invoker) Stats() []EndpointStats {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	now := inv.cfg.now()
	out := make([]EndpointStats, 0, len(inv.endpoints))
	for _, ep := range inv.endpoints {
		out = append(out, EndpointStats{
			Addr:        ep.addr,
			Dispatched:  ep.mDispatched.Value(),
			Failures:    ep.mFailures.Value(),
			Inflight:    int(ep.mInflight.Value()),
			Connected:   ep.client != nil,
			Blacklisted: ep.blacklistedUntil.After(now),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// plan orders the resolved members for one dispatch: the balancing
// strategy ranks them, then currently blacklisted members are moved to
// the back (kept as last resort, so an all-blacklisted pool still gets
// tried rather than failing outright). key is the activation identity
// BalanceHash seeds its rotation with; the other strategies ignore it.
func (inv *Invoker) plan(addrs []string, key string) []string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	now := inv.cfg.now()
	for _, addr := range addrs {
		if ep, ok := inv.endpoints[addr]; ok {
			ep.lastSeen = now
		}
	}
	inv.pruneStale(now)
	ordered := make([]string, len(addrs))
	copy(ordered, addrs)
	switch inv.cfg.Balance {
	case BalanceLeastInflight:
		// Stable sort keeps resolve-set order among equally loaded
		// members (deterministic when idle).
		sort.SliceStable(ordered, func(i, j int) bool {
			return inv.inflightOf(ordered[i]) < inv.inflightOf(ordered[j])
		})
	case BalanceHash:
		h := fnv.New64a()
		_, _ = h.Write([]byte(key))
		start := int(h.Sum64() % uint64(len(ordered)))
		rotated := make([]string, 0, len(ordered))
		rotated = append(rotated, ordered[start:]...)
		rotated = append(rotated, ordered[:start]...)
		ordered = rotated
	default: // BalanceRoundRobin
		start := int(inv.rr % uint64(len(ordered)))
		inv.rr++
		rotated := make([]string, 0, len(ordered))
		rotated = append(rotated, ordered[start:]...)
		rotated = append(rotated, ordered[:start]...)
		ordered = rotated
	}
	healthy := make([]string, 0, len(ordered))
	var benched []string
	for _, addr := range ordered {
		if ep, ok := inv.endpoints[addr]; ok && ep.blacklistedUntil.After(now) {
			benched = append(benched, addr)
			continue
		}
		healthy = append(healthy, addr)
	}
	return append(healthy, benched...)
}

// pruneStale drops idle endpoints that no resolve set has mentioned
// for endpointEvictAfter (their clients, if any, are closed out of
// band). Callers hold mu.
func (inv *Invoker) pruneStale(now time.Time) {
	for addr, ep := range inv.endpoints {
		if ep.mInflight.Value() == 0 && !ep.lastSeen.IsZero() && now.Sub(ep.lastSeen) > endpointEvictAfter {
			if ep.client != nil {
				// Bounded: Close only waits out the client's current
				// invocation. Detaching keeps the pool lock free.
				//wflint:allow goroutinestop bounded detached Close; waits at most one in-flight invocation
				go ep.client.Close()
				ep.client = nil
			}
			delete(inv.endpoints, addr)
		}
	}
}

// inflightOf reads an endpoint's inflight count; unknown endpoints are
// idle. Callers hold mu.
func (inv *Invoker) inflightOf(addr string) int {
	if ep, ok := inv.endpoints[addr]; ok {
		return int(ep.mInflight.Value())
	}
	return 0
}

// acquire returns (creating if needed) the endpoint and its client,
// counting the dispatch as inflight.
func (inv *Invoker) acquire(addr string) (*endpoint, *orb.Client) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	ep, ok := inv.endpoints[addr]
	if !ok {
		reg := inv.cfg.Metrics
		ep = &endpoint{
			addr:        addr,
			lastSeen:    inv.cfg.now(),
			mDispatched: reg.Counter(obs.MTaskDispatches, "endpoint", addr),
			mFailures:   reg.Counter(obs.MTaskFailures, "endpoint", addr),
			mInflight:   reg.Gauge(obs.MTaskInflight, "endpoint", addr),
		}
		inv.endpoints[addr] = ep
	}
	if ep.client == nil {
		ep.client = orb.Dial(addr, inv.cfg.Client)
	}
	ep.mInflight.Add(1)
	ep.mDispatched.Inc()
	return ep, ep.client
}

// release ends one dispatch. On failure the endpoint's cached client is
// evicted (a restarted executor gets a fresh dial; the dead connection
// is not held forever) and the endpoint is temporarily blacklisted so
// the next dispatches prefer surviving members.
func (inv *Invoker) release(ep *endpoint, failed bool) {
	inv.mu.Lock()
	ep.mInflight.Add(-1)
	var evicted *orb.Client
	if failed {
		ep.mFailures.Inc()
		ep.blacklistedUntil = inv.cfg.now().Add(inv.cfg.BlacklistFor)
		evicted, ep.client = ep.client, nil
	}
	inv.mu.Unlock()
	if evicted != nil {
		// Close outside the pool lock: Close waits for the client's
		// in-flight invocation (if any) to finish.
		//wflint:allow goroutinestop bounded detached Close; waits at most one in-flight invocation
		go evicted.Close()
	}
}

// validBalance reports whether s names a balancing strategy.
func validBalance(s string) bool {
	switch s {
	case "", BalanceRoundRobin, BalanceLeastInflight, BalanceHash:
		return true
	default:
		return false
	}
}

// NewPoolInvoker builds a pool-aware engine.RemoteInvoker-compatible
// dispatcher over a set resolver.
func NewPoolInvoker(resolve SetResolver, cfg PoolConfig) (*Invoker, error) {
	if !validBalance(cfg.Balance) {
		return nil, fmt.Errorf("taskexec: unknown balance strategy %q (want %s, %s or %s)", cfg.Balance, BalanceRoundRobin, BalanceLeastInflight, BalanceHash)
	}
	cfg = cfg.withDefaults()
	return &Invoker{
		resolveSet:       resolve,
		cfg:              cfg,
		endpoints:        make(map[string]*endpoint),
		resolved:         make(map[string]*resolvedSet),
		mDispatchSeconds: cfg.Metrics.Histogram(obs.MTaskDispatchSeconds, nil),
		mFailovers:       cfg.Metrics.Counter(obs.MTaskFailovers),
	}, nil
}

// resolvedSet is one location's cached member set.
type resolvedSet struct {
	addrs []string
	at    time.Time
}

// resolve returns the location's member set, serving from the cache
// within ResolveCache and falling back to the last known set when a
// refresh fails.
func (inv *Invoker) resolve(location string) ([]string, error) {
	ttl := inv.cfg.ResolveCache
	if ttl <= 0 {
		return inv.resolveSet(location)
	}
	now := inv.cfg.now()
	inv.mu.Lock()
	if c, ok := inv.resolved[location]; ok && now.Sub(c.at) < ttl {
		addrs := c.addrs
		inv.mu.Unlock()
		return addrs, nil
	}
	inv.mu.Unlock()
	addrs, err := inv.resolveSet(location)
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if err != nil {
		if c, ok := inv.resolved[location]; ok {
			// Stale beats stuck: the members may well still be alive
			// (per-endpoint health handles the ones that are not).
			return c.addrs, nil
		}
		return nil, err
	}
	inv.resolved[location] = &resolvedSet{addrs: addrs, at: now}
	return addrs, nil
}
