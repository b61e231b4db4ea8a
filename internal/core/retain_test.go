package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"vital/internal/netlist"
	"vital/internal/partition"
	"vital/internal/pnr"
)

// toolOutputTypes are the compile intermediates serving never reads.
var toolOutputTypes = map[reflect.Type]bool{
	reflect.TypeOf((*netlist.Netlist)(nil)):  true,
	reflect.TypeOf((*partition.Result)(nil)): true,
	reflect.TypeOf((*pnr.BlockResult)(nil)):  true,
	reflect.TypeOf((*pnr.Placement)(nil)):    true,
	reflect.TypeOf((*pnr.Routing)(nil)):      true,
	reflect.TypeOf((*pnr.GlobalResult)(nil)): true,
}

// reachedToolOutput walks everything v reaches and returns the path to the
// first tool output it finds, or "".
func reachedToolOutput(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if toolOutputTypes[v.Type()] {
			return path + " (" + v.Type().String() + ")"
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return reachedToolOutput(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return reachedToolOutput(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := reachedToolOutput(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
			for i := 0; i < v.Len(); i++ {
				if p := reachedToolOutput(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
					return p
				}
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := reachedToolOutput(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// After CompileSpec of two designs and a renamed cache hit, neither a
// compile cache entry nor a registry entry reaches a netlist, partition or
// P&R result: only the value a tool-running compile returns carries them.
func TestCompiledEntriesHoldNoToolOutputs(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()
	ctx := context.Background()
	for _, c := range []struct{ design, app string }{
		{"lenet-S", "a.lenet-S"},
		{"svhn-S", "a.svhn-S"},
		{"lenet-S", "b.lenet-S"}, // a cache hit under a new name
	} {
		if _, err := s.CompileSpec(ctx, c.design, c.app); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Controller.Cache.Stats(); st.Entries != 2 || st.Hits != 1 {
		t.Fatalf("cache stats %+v, want 2 entries and 1 hit", st)
	}
	seen := map[uintptr]bool{}
	for _, name := range []string{"a.lenet-S", "a.svhn-S", "b.lenet-S"} {
		key, ok := s.DesignKeyOf(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		entry, ok := s.Controller.Cache.Get(key)
		if !ok {
			t.Fatalf("no cache entry for %s", name)
		}
		if p := reachedToolOutput(reflect.ValueOf(entry), "cache["+name+"]", seen); p != "" {
			t.Errorf("compile cache entry reaches a tool output: %s", p)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := reachedToolOutput(reflect.ValueOf(s.apps), "apps", seen); p != "" {
		t.Errorf("named-app registry reaches a tool output: %s", p)
	}
}

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// A compile's intermediates die with the value it returns: once that is
// dropped, a stack that registered lenet-S retains well under the 11 MiB
// its netlist, partition and P&R results take. Not parallel, so no other
// test's heap is counted.
func TestCompileSpecRetainsServedPartOnly(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()
	before := liveHeap()
	if _, err := s.CompileSpec(context.Background(), "lenet-S", "a.lenet-S"); err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(s)
	if _, ok := s.App("a.lenet-S"); !ok {
		t.Fatal("a.lenet-S not registered")
	}
	if retained >= 2<<20 {
		t.Fatalf("registering lenet-S retains %.1f MiB, want < 2 MiB", float64(retained)/(1<<20))
	}
	t.Logf("registering lenet-S retains %.2f MiB", float64(retained)/(1<<20))
}
