package sim

import (
	"reflect"
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// TestReleasedKernelsHoldNoReferences checks the pools' memory rule: a
// kernel back in its pool after a completed run references no graph,
// scheduler table, protocol or transition table, so an idle kernel pins
// none of them (the edge array of a ws:10⁶ graph alone is 40 MB). Every
// pointer, slice, map, interface and func field must be nil, except
// churn's edge-state slice, which is the kernel's own scratch.
func TestReleasedKernelsHoldNoReferences(t *testing.T) {
	g := graph.Torus2D(4, 5)
	rates := make([]float64, g.M())
	for i := range rates {
		rates[i] = float64(1 + i%3)
	}
	weighted, err := NewWeighted(g, "weighted:ramp", rates)
	if err != nil {
		t.Fatal(err)
	}
	nodeClock, err := NewNodeClock(g)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := NewChurn(g, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A one-state machine is stable from the start, so every run is one
	// fused step. Clocked, with the same table as its tick table, it
	// binds every field the walk inspects, the tick cells and streak
	// bytes included.
	table, err := core.NewTransitionTable(1, func(a, b uint8) (uint8, uint8) { return a, b },
		func(uint8) core.Role { return core.Follower }, func(uint8) int { return 0 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	newProto := func() *Tabular {
		return NewClockedTabular("still", 1, 1, 0, func() (*core.TransitionTable, *core.TransitionTable) { return table, table },
			func(graph.Graph, []uint8) {})
	}
	for _, c := range []struct {
		g     graph.Graph
		sched Scheduler
		mode  planMode
	}{
		{g, nil, modeDenseUniform},
		{graph.NewClique(10), nil, modeCliqueUniform},
		{g, weighted, modeWeighted},
		{g, nodeClock, modeNodeClock},
		{g, churn, modeChurnUniform},
	} {
		pl, err := Compile(c.g, Options{Scheduler: c.sched})
		if err != nil {
			t.Fatal(err)
		}
		if pl.mode != c.mode {
			t.Fatalf("%s: compiled to %s", planModeNames[c.mode], pl.Engine())
		}
		// Get usually hands back the kernel the run just put, but a GC
		// or the race detector may empty the pool; a fresh kernel (no
		// refills yet) proves nothing, so run again.
		var kn sampler
		for try := 0; try < 100 && kn == nil; try++ {
			pl.Run(newProto(), xrand.New(uint64(try)))
			kn = samplerPools[c.mode].Get().(sampler)
			if reflect.ValueOf(kn).Elem().FieldByName("machine").FieldByName("blk").FieldByName("refills").Int() == 0 {
				kn = nil
			}
		}
		if kn == nil {
			t.Fatalf("%s: the pool never returned a used kernel", planModeNames[c.mode])
		}
		if m := reflect.ValueOf(kn).Elem().FieldByName("machine"); protoMode(m.FieldByName("mode").Uint()) != protoClocked {
			t.Fatalf("%s: the run did not bind a clocked machine", planModeNames[c.mode])
		}
		var held []string
		heldReferences(reflect.ValueOf(kn).Elem(), "", &held)
		if len(held) > 0 {
			t.Errorf("%s: released kernel still references %v", planModeNames[c.mode], held)
		}
	}
}

// heldReferences appends the path of every non-nil reference field
// reachable through v's structs, except churn's own state scratch.
func heldReferences(v reflect.Value, path string, out *[]string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := path + "." + v.Type().Field(i).Name; p != ".state" {
				heldReferences(v.Field(i), p, out)
			}
		}
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
		if !v.IsNil() {
			*out = append(*out, path)
		}
	}
}
