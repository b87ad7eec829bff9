package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/repository"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/taskexec"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The sharded-remote tier: two coordinators over eight MemStore
// partitions with in-process leases, two executors serving the "pool"
// location, the naming service (which also hosts the repository), all
// talking orb over an in-memory network.
const (
	partitions   = 8
	coordinators = 2
	executors    = 2
	remoteLen    = 4
	poolLocation = "pool"
	remoteSchema = "remote-chain"
	namingAddr   = "naming"
	leaseTTL     = 30 * time.Second
	leaseRenewal = 5 * time.Second
)

type coordNode struct {
	eng *engine.Engine
	mgr *shard.Manager
	inv *taskexec.Invoker
}

type tier struct {
	network  *orb.MemNetwork
	naming   *orb.Naming
	servers  []*orb.Server
	parts    []*store.MemStore
	coords   []*coordNode
	clients  []*execsvc.ShardedClient
	reg      *obs.Registry // the coordinators' engines
	shardReg *obs.Registry // the lease managers
	execReg  *obs.Registry // the executors
	execs    atomic.Int64  // executor-side stage executions
}

// dialer returns the transport for one class of peer: the in-memory
// network, through the class's counting probe when traced.
func (t *tier) dialer(c *connProbe) orb.Dialer {
	if c == nil {
		return t.network.Dial
	}
	return c.dialer(t.network.Dial)
}

func (t *tier) serve(addr string) (*orb.Server, error) {
	ln, err := t.network.Listen(addr)
	if err != nil {
		return nil, err
	}
	srv := orb.NewServerOn(ln)
	t.servers = append(t.servers, srv)
	return srv, nil
}

// timedSource resolves schemas exactly as execsvc.FromRepositoryClient
// does (fetch the source over the orb, compile it locally) with the
// compile step timed.
type timedSource struct {
	repo *repository.Client
	t    *tally
}

func (s timedSource) Compile(name string) (*core.Schema, error) {
	e, err := s.repo.Get(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	schema, err := compileSource(name, []byte(e.Source))
	s.t.observe(start, 1, len(e.Source))
	return schema, err
}

// bootTier builds the tier and returns once every partition has a
// lease holder.
func bootTier(p *probes) (*tier, error) {
	t := &tier{network: orb.NewMemNetwork(), naming: orb.NewNaming(), reg: obs.NewRegistry(), shardReg: obs.NewRegistry(), execReg: obs.NewRegistry()}
	var namingC, coordC, execC, repoC *connProbe
	if p != nil {
		namingC, coordC, execC, repoC = &p.naming, &p.coord, &p.exec, &p.repo
	}
	nsrv, err := t.serve(namingAddr)
	if err != nil {
		return t, err
	}
	nsrv.Register(orb.NamingObject, t.naming.Servant())
	repoStore := store.NewMemStore()
	repo := repository.New(persist.NewRegistry(repoStore, txn.NewManager(repoStore), nil))
	nsrv.Register(repository.ObjectName, repo.Servant())
	if _, err := repo.Put(remoteSchema, workload.LocatedChain(remoteLen, poolLocation)); err != nil {
		return t, err
	}

	for i := 0; i < executors; i++ {
		impls := countedImpls(&t.execs)
		if p != nil {
			stage, _ := impls.Lookup("stage")
			impls.Bind("stage", timedImpl(&p.execute, stage))
		}
		ex := taskexec.NewExecutor(impls)
		ex.SetObservability(t.execReg, obs.NewTracer(obs.DefaultTraceCapacity), nil)
		addr := fmt.Sprintf("exec-%d", i)
		srv, err := t.serve(addr)
		if err != nil {
			return t, err
		}
		srv.Register(taskexec.ObjectName, ex.Servant())
		t.naming.BindMember(poolLocation, addr, 0)
	}

	t.parts = make([]*store.MemStore, partitions)
	for i := range t.parts {
		t.parts[i] = store.NewMemStore()
	}
	for i := 0; i < coordinators; i++ {
		t.naming.BindMember(shard.CoordTier, fmt.Sprintf("coord-%d", i), 0)
	}
	for i := 0; i < coordinators; i++ {
		c, err := t.bootCoord(fmt.Sprintf("coord-%d", i), p, execC, repoC)
		if err != nil {
			return t, err
		}
		t.coords = append(t.coords, c)
	}
	for _, c := range t.coords {
		c.mgr.Tick()
	}
	for part := 0; part < partitions; part++ {
		if _, _, held := t.naming.LeaseHolder(shard.LeaseName(part)); !held {
			return t, fmt.Errorf("partition %d has no lease holder after boot", part)
		}
	}
	for _, c := range t.coords {
		c.mgr.Start()
	}

	for i := 0; i < clients; i++ {
		nc := orb.NewNamingClient(orb.Dial(namingAddr, orb.ClientConfig{Dialer: t.dialer(namingC)}))
		dial := t.dialer(coordC)
		t.clients = append(t.clients, execsvc.NewShardedClient(nc, execsvc.ShardedConfig{
			Partitions: partitions,
			Dial: func(addr string) *execsvc.Client {
				return execsvc.NewClient(orb.Dial(addr, orb.ClientConfig{Retries: -1, Dialer: dial}))
			},
		}))
	}
	return t, nil
}

// bootCoord wires one coordinator the way the sharded daemon does:
// engine over a PartitionedStore with the lease fence, execution
// service with the ownership guard, pool invoker for located tasks.
func (t *tier) bootCoord(addr string, p *probes, execC, repoC *connProbe) (*coordNode, error) {
	ps := shard.NewPartitionedStore(partitions)
	tracer := obs.NewTracer(obs.DefaultTraceCapacity)
	inv, err := taskexec.NewPoolInvoker(t.naming.ResolveAll, taskexec.PoolConfig{
		Client:  orb.ClientConfig{Dialer: t.dialer(execC)},
		Metrics: obs.NewRegistry(),
		Tracer:  tracer,
	})
	if err != nil {
		return nil, err
	}
	remote := engine.RemoteInvoker(inv.Invoke)
	if p != nil {
		remote = timedInvoker(&p.dispatch, remote)
	}
	eng := engine.New(registryOver(ps, p), registry.New(), engine.Config{RemoteInvoker: remote, Metrics: t.reg, Tracer: tracer})
	node := &coordNode{eng: eng, inv: inv}

	repoClient := repository.NewClient(orb.Dial(namingAddr, orb.ClientConfig{Dialer: t.dialer(repoC)}))
	var schemas execsvc.SchemaSource = execsvc.FromRepositoryClient(repoClient)
	if p != nil {
		schemas = timedSource{repo: repoClient, t: &p.compile}
	}
	svc := execsvc.New(eng, schemas)
	srv, err := t.serve(addr)
	if err != nil {
		node.close()
		return nil, err
	}
	srv.Register(execsvc.ObjectName, svc.Servant())

	inPartition := func(part int) func(string) bool {
		return func(inst string) bool { return shard.PartitionOf(inst, partitions) == part }
	}
	node.mgr, err = shard.NewManager(shard.ManagerConfig{
		ID:         addr,
		Addr:       addr,
		Partitions: partitions,
		TTL:        leaseTTL,
		Renew:      leaseRenewal,
		Leases:     shard.LocalLeases{N: t.naming},
		Peers:      func() ([]string, error) { return t.naming.ResolveAll(shard.CoordTier) },
		OnAcquire: func(part int) error {
			st := t.parts[part]
			if _, err := persist.NewRegistry(st, txn.NewManager(st), nil).Recover(); err != nil {
				return err
			}
			ps.Mount(part, st)
			_, err := eng.RecoverMatching(compileSource, inPartition(part))
			return err
		},
		OnLose: func(part int) {
			eng.StopMatching(inPartition(part))
			ps.Unmount(part)
		},
		Metrics: t.shardReg,
	})
	if err != nil {
		node.close()
		return nil, err
	}
	mgr := node.mgr
	fence := mgr.Holds
	own := func(instance string) (bool, string) {
		part := shard.PartitionOf(instance, partitions)
		if mgr.Holds(part) {
			return true, ""
		}
		if _, holderAddr, held := t.naming.LeaseHolder(shard.LeaseName(part)); held {
			return false, holderAddr
		}
		return false, ""
	}
	if p != nil {
		fence = countedCheck(&p.fence, mgr.Holds)
		check := own
		own = func(instance string) (bool, string) {
			p.own.Add(1)
			return check(instance)
		}
	}
	ps.SetFence(fence)
	svc.SetOwnership(own)
	return node, nil
}

func (c *coordNode) close() {
	if c.mgr != nil {
		c.mgr.Close()
	}
	c.eng.Close()
	c.inv.Close()
}

// close stops the tier; the partition stores keep what was persisted.
func (t *tier) close() {
	for _, sc := range t.clients {
		sc.Close()
	}
	for _, c := range t.coords {
		c.close()
	}
	for _, srv := range t.servers {
		srv.Close()
	}
}

// runRemote runs one instance through a routing client.
func runRemote(sc *execsvc.ShardedClient, p *probes, id string) error {
	start := time.Now()
	err := sc.Instantiate(id, remoteSchema, "")
	if p != nil {
		p.verbs[0].observe(start, 1, 0)
	}
	if err != nil {
		return fmt.Errorf("instantiate %s: %w", id, err)
	}
	start = time.Now()
	err = sc.Start(id, "main", workload.Seed())
	if p != nil {
		p.verbs[1].observe(start, 1, 0)
	}
	if err != nil {
		return fmt.Errorf("start %s: %w", id, err)
	}
	start = time.Now()
	status, res, err := sc.WaitSettled(id, settleTimeout)
	if p != nil {
		p.verbs[2].observe(start, 1, 0)
	}
	if err != nil {
		return fmt.Errorf("wait %s: %w", id, err)
	}
	if status != engine.StatusCompleted || res.Output != "done" {
		return fmt.Errorf("instance %s settled %v with outcome %q, want completed/done", id, status, res.Output)
	}
	return nil
}

// restartTier re-materializes every instance of the tier's partitions on
// one fresh coordinator engine, as a takeover of every partition would:
// roll each partition's transaction log forward, mount it, recover.
func restartTier(t *tier, p *probes) (*engine.Engine, *obs.Registry, restartTimes, error) {
	var rt restartTimes
	reg := obs.NewRegistry()
	ps := shard.NewPartitionedStore(partitions)
	rt.txnA = p.take(reg, nil, nil)
	start := time.Now()
	for part, st := range t.parts {
		if _, err := registryOver(st, p).Recover(); err != nil {
			return nil, reg, rt, fmt.Errorf("partition %d txn recover: %w", part, err)
		}
		ps.Mount(part, st)
	}
	rt.txnRecover = time.Since(start)
	rt.txnB = p.take(reg, nil, nil)
	eng := engine.New(registryOver(ps, p), registry.New(), engine.Config{Metrics: reg, Tracer: obs.NewTracer(obs.DefaultTraceCapacity)})
	compile := compileSource
	if p != nil {
		compile = timedCompiler(&p.compile, compileSource)
	}
	rt.remA = p.take(reg, nil, nil)
	start = time.Now()
	if _, err := eng.RecoverMatching(compile, nil); err != nil {
		eng.Close()
		return nil, reg, rt, fmt.Errorf("recover instances: %w", err)
	}
	rt.rematerialize = time.Since(start)
	rt.remB = p.take(reg, nil, nil)
	return eng, reg, rt, nil
}

type shardedSize struct{ warm, timed int }

func shardedSizes(smoke bool) shardedSize {
	if smoke {
		return shardedSize{warm: 4, timed: 16}
	}
	return shardedSize{warm: 40, timed: 600}
}

// shardedRound is one sharded-remote round: boot the tier, run the
// timed located chains through the routing clients, check one executor
// execution per task, then restart every partition on a fresh engine
// and check every instance came back completed.
func shardedRound(rc *runCtx) (round, error) {
	sz := shardedSizes(rc.smoke)
	var p *probes
	if rc.traced {
		p = &probes{}
	}
	r := round{fsyncs: -1}
	var err error
	r.setups, err = sampleBoots(rc, func(int) (func(), error) {
		t, err := bootTier(p)
		return t.close, err
	})
	if err != nil {
		return r, err
	}
	runtime.GC()
	start := time.Now()
	t, err := bootTier(p)
	if err != nil {
		t.close()
		return r, err
	}
	r.setups = append(r.setups, time.Since(start))

	warm := rc.newIDs("w", sz.warm)
	timed := rc.newIDs("sr", sz.timed)
	runOne := func(c int, id string) error { return runRemote(t.clients[c], p, id) }
	r.attempted += len(warm)
	if _, _, err := closedLoop(warm, runOne); err != nil {
		t.close()
		r.failed = len(warm)
		return r, err
	}
	runtime.GC()
	a := p.take(t.reg, t.shardReg, t.execReg)
	alloc := totalAlloc()
	r.attempted += len(timed)
	lat, elapsed, err := closedLoop(timed, runOne)
	r.allocKB = float64(totalAlloc()-alloc) / 1024 / float64(len(timed))
	b := p.take(t.reg, t.shardReg, t.execReg)
	if err != nil {
		t.close()
		r.failed = len(timed)
		return r, err
	}
	r.counts = serverCounts(a, b, len(timed), r.fsyncs)
	r.lat, r.elapsed = lat, elapsed
	r.heapMB = heapAfterGC()
	t.close()

	all := append(append([]string(nil), warm...), timed...)
	if got, want := t.execs.Load(), int64(remoteLen*len(all)); got != want {
		return r, fmt.Errorf("executor-side executions %d, want %d (one per located task)", got, want)
	}
	runtime.GC()
	rs := p.take(nil, nil, nil)
	start = time.Now()
	eng, reg, rt, err := restartTier(t, p)
	if err != nil {
		return r, err
	}
	r.recover = time.Since(start)
	re := p.take(reg, nil, nil)
	defer eng.Close()
	if bad, err := verifyCompleted(eng, all); err != nil {
		r.failed += bad
		return r, fmt.Errorf("after restart: %w", err)
	}
	if got := len(eng.Instances()); got != len(all) {
		return r, fmt.Errorf("restart re-materialized %d instances, want %d", got, len(all))
	}
	if rc.traced {
		r.layers = map[string]float64{}
		serveLayers(a, b, len(timed), meanMs(lat), r.layers)
		restartLayers(rs, re, rt, false, r.layers)
	}
	return r, nil
}
