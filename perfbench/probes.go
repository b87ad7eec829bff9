package main

import (
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/store"
)

// This file holds the traced run's probes: decorators around the public
// seams of each layer. Every probe forwards to the real implementation
// and only counts and times on the way; none changes which code path
// the call takes below it (see storeProbe's Batcher forwarding).

// tally is a call counter with accumulated time and bytes.
type tally struct {
	calls atomic.Int64
	nanos atomic.Int64
	bytes atomic.Int64
	items atomic.Int64
}

func (t *tally) observe(start time.Time, items, bytes int) {
	t.nanos.Add(int64(time.Since(start)))
	t.calls.Add(1)
	t.items.Add(int64(items))
	t.bytes.Add(int64(bytes))
}

// tallySnap is a point-in-time copy of a tally, so a phase can be
// measured as the difference of two snapshots.
type tallySnap struct{ calls, nanos, bytes, items int64 }

func (t *tally) snap() tallySnap {
	return tallySnap{t.calls.Load(), t.nanos.Load(), t.bytes.Load(), t.items.Load()}
}

func (a tallySnap) sub(b tallySnap) tallySnap {
	return tallySnap{a.calls - b.calls, a.nanos - b.nanos, a.bytes - b.bytes, a.items - b.items}
}

func (a tallySnap) add(b tallySnap) tallySnap {
	return tallySnap{a.calls + b.calls, a.nanos + b.nanos, a.bytes + b.bytes, a.items + b.items}
}

func (a tallySnap) ms() float64 { return float64(a.nanos) / 1e6 }

// storeProbe decorates a store.Store. Mutations (Write, Delete and both
// batch forms) land in apply, with one item per record; List and Read
// land in list and read. It always implements store.Batcher and
// store.LazyBatcher and forwards them through store.ApplyBatch and
// store.ApplyBatchBestEffort, which pick the inner store's own fast path
// when it has one and fall back exactly as they would without the probe.
type storeProbe struct {
	inner store.Store
	t     *storeTally
}

// storeTally is what a group of storeProbes accumulates into.
type storeTally struct{ apply, list, read tally }

var (
	_ store.Batcher     = (*storeProbe)(nil)
	_ store.LazyBatcher = (*storeProbe)(nil)
)

func newStoreProbe(inner store.Store, t *storeTally) *storeProbe {
	return &storeProbe{inner: inner, t: t}
}

func opBytes(ops []store.BatchOp) int {
	n := 0
	for _, op := range ops {
		n += len(op.ID) + len(op.Data)
	}
	return n
}

func (p *storeProbe) Read(id store.ID) ([]byte, error) {
	start := time.Now()
	data, err := p.inner.Read(id)
	p.t.read.observe(start, 1, len(data))
	return data, err
}

func (p *storeProbe) Write(id store.ID, data []byte) error {
	start := time.Now()
	err := p.inner.Write(id, data)
	p.t.apply.observe(start, 1, len(id)+len(data))
	return err
}

func (p *storeProbe) Delete(id store.ID) error {
	start := time.Now()
	err := p.inner.Delete(id)
	p.t.apply.observe(start, 1, len(id))
	return err
}

func (p *storeProbe) List(prefix store.ID) ([]store.ID, error) {
	start := time.Now()
	ids, err := p.inner.List(prefix)
	p.t.list.observe(start, len(ids), 0)
	return ids, err
}

func (p *storeProbe) ApplyBatch(ops []store.BatchOp) error {
	start := time.Now()
	err := store.ApplyBatch(p.inner, ops)
	p.t.apply.observe(start, len(ops), opBytes(ops))
	return err
}

func (p *storeProbe) ApplyBatchLazy(ops []store.BatchOp) error {
	start := time.Now()
	err := store.ApplyBatchBestEffort(p.inner, ops)
	p.t.apply.observe(start, len(ops), opBytes(ops))
	return err
}

// fileProbe is a store.FileOps over the real file system that counts
// the bytes written and the fsyncs (with their time) of every file the
// WAL store opens.
type fileProbe struct {
	store.OSOps
	write tally
	sync  tally
}

type probedFile struct {
	store.File
	p *fileProbe
}

func (p *fileProbe) wrap(f store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return probedFile{File: f, p: p}, nil
}

func (p *fileProbe) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	return p.wrap(p.OSOps.OpenFile(name, flag, perm))
}

func (p *fileProbe) CreateTemp(dir, pattern string) (store.File, error) {
	return p.wrap(p.OSOps.CreateTemp(dir, pattern))
}

func (f probedFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	f.p.write.observe(start, 1, n)
	return n, err
}

func (f probedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.p.sync.observe(start, 1, 0)
	return err
}

// connProbe counts orb traffic of one class of peer. A call is one
// request/reply exchange: the first Read after a Write on a connection
// (orb clients write a whole request, then read its reply).
type connProbe struct {
	calls atomic.Int64
	bytes atomic.Int64
}

type probedConn struct {
	net.Conn
	p       *connProbe
	writing bool
}

func (p *connProbe) dialer(dial func(string) (net.Conn, error)) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &probedConn{Conn: c, p: p}, nil
	}
}

func (c *probedConn) Write(b []byte) (int, error) {
	c.writing = true
	n, err := c.Conn.Write(b)
	c.p.bytes.Add(int64(n))
	return n, err
}

func (c *probedConn) Read(b []byte) (int, error) {
	if c.writing {
		c.writing = false
		c.p.calls.Add(1)
	}
	n, err := c.Conn.Read(b)
	c.p.bytes.Add(int64(n))
	return n, err
}

// timedCompiler wraps the schema compiler handed to recovery.
func timedCompiler(t *tally, compile engine.SchemaCompiler) engine.SchemaCompiler {
	return func(name string, src []byte) (*core.Schema, error) {
		start := time.Now()
		s, err := compile(name, src)
		t.observe(start, 1, len(src))
		return s, err
	}
}

// timedInvoker wraps the engine's remote invoker.
func timedInvoker(t *tally, inv engine.RemoteInvoker) engine.RemoteInvoker {
	return func(req engine.RemoteRequest) (registry.Result, error) {
		start := time.Now()
		res, err := inv(req)
		t.observe(start, 1, 0)
		return res, err
	}
}

// timedImpl wraps a task implementation.
func timedImpl(t *tally, f registry.Func) registry.Func {
	return func(ctx registry.Context) (registry.Result, error) {
		start := time.Now()
		res, err := f(ctx)
		t.observe(start, 1, 0)
		return res, err
	}
}

// countedCheck wraps a boolean fence closure.
func countedCheck(n *atomic.Int64, f func(int) bool) func(int) bool {
	return func(p int) bool {
		n.Add(1)
		return f(p)
	}
}
