package registry_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/registry"
)

func TestBindLookupRebind(t *testing.T) {
	r := registry.New()
	if _, err := r.Lookup("x"); !errors.Is(err, registry.ErrUnbound) {
		t.Fatalf("lookup unbound: %v", err)
	}
	r.Bind("x", registry.Fixed("done", nil))
	f, err := r.Lookup("x")
	if err != nil {
		t.Fatal(err)
	}
	res, err := f(nil)
	if err != nil || res.Output != "done" {
		t.Fatalf("res = %+v, %v", res, err)
	}
	// Online upgrade: rebinding replaces and bumps the version.
	r.Bind("x", registry.Fixed("v2", nil))
	f, _ = r.Lookup("x")
	res, _ = f(nil)
	if res.Output != "v2" {
		t.Fatalf("after rebind: %+v", res)
	}
	if r.Version("x") != 2 {
		t.Errorf("version = %d, want 2", r.Version("x"))
	}
	// Unbind by nil.
	r.Bind("x", nil)
	if _, err := r.Lookup("x"); !errors.Is(err, registry.ErrUnbound) {
		t.Fatalf("lookup after unbind: %v", err)
	}
}

func TestFailN(t *testing.T) {
	f := registry.FailN(2, "ok", registry.Objects{"a": {Class: "A", Data: 1}})
	for k := 0; k < 2; k++ {
		if _, err := f(nil); err == nil {
			t.Fatalf("call %d: expected injected failure", k)
		}
	}
	res, err := f(nil)
	if err != nil || res.Output != "ok" {
		t.Fatalf("after failures: %+v, %v", res, err)
	}
}

// TestBuiltinSchemes: the daemons' pattern schemes resolve, and
// malformed or retired names (the timer: alias of sleep:) do not.
func TestBuiltinSchemes(t *testing.T) {
	for _, code := range []string{"fixed:done", "sleep:1s:done", "fail:2:done"} {
		if _, ok := registry.Builtin(code); !ok {
			t.Errorf("Builtin(%q) did not resolve", code)
		}
	}
	for _, code := range []string{"fixed", "sleep:1s", "sleep:soon:done", "fail:x:done", "nope:done", "timer:1s:done"} {
		if _, ok := registry.Builtin(code); ok {
			t.Errorf("Builtin(%q) resolved, want not resolved", code)
		}
	}
}

func TestObjectsClone(t *testing.T) {
	var nilObjs registry.Objects
	if nilObjs.Clone() != nil {
		t.Error("nil clone must stay nil")
	}
	o := registry.Objects{"a": {Class: "A", Data: 1}}
	c := o.Clone()
	c["b"] = registry.Value{Class: "B"}
	if _, leaked := o["b"]; leaked {
		t.Error("clone shares the map")
	}
}

func TestConcurrentBindLookup(t *testing.T) {
	r := registry.New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				r.Bind("hot", registry.Fixed("done", nil))
				if f, err := r.Lookup("hot"); err == nil {
					_, _ = f(nil)
				}
			}
		}(w)
	}
	wg.Wait()
	if len(r.Codes()) != 1 {
		t.Errorf("codes = %v", r.Codes())
	}
}
