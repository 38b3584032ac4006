package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// requestBytes draws a sample of every generator's request bodies.
func requestBytes(seed uint64) [][]byte {
	var out [][]byte
	for _, op := range hotKeys(seed, 8) {
		out = append(out, op.body)
	}
	cold := newColdGen(seed)
	for i := 0; i < 2; i++ {
		for _, op := range cold.cycle() {
			out = append(out, op.body)
		}
	}
	opt := newOptimizeGen(seed, defaultOptimizeSizes)
	for i := 0; i < 2; i++ {
		for _, op := range opt.cycle() {
			out = append(out, op.body)
		}
	}
	return out
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b, c := requestBytes(1), requestBytes(1), requestBytes(2)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("request counts differ: %d, %d, %d", len(a), len(b), len(c))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two draws of seed 1:\n%s\n%s", i, a[i], b[i])
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("request %d is the same for seeds 1 and 2: %s", i, a[i])
		}
	}
}

// TestColdMix checks that every eval-cold cycle holds the same request
// classes whatever the seed: 80% heterogeneous n ∈ [10, 15] split evenly
// between thresholds and oblivious rules, 20% homogeneous n ∈ [16, 25].
func TestColdMix(t *testing.T) {
	classes := func(seed uint64) map[string]int {
		m := map[string]int{}
		for _, op := range newColdGen(seed).cycle() {
			r := op.req
			m[fmt.Sprintf("%s/n=%d/hetero=%v", r.Kind, r.N, len(r.Pi) > 0)]++
		}
		return m
	}
	a, b := classes(1), classes(99)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("cycle classes depend on the seed:\n%v\n%v", a, b)
	}
	hetero, homog, thr := 0, 0, 0
	for _, op := range newColdGen(3).cycle() {
		r := op.req
		switch {
		case len(r.Pi) > 0 && r.N >= 10 && r.N <= 15:
			hetero++
			if r.Kind == "threshold" {
				thr++
			}
		case len(r.Pi) == 0 && r.N >= 16 && r.N <= 25 && r.Kind == "threshold":
			homog++
		default:
			t.Errorf("request outside the mix: %s", op.body)
		}
	}
	if hetero != 4*homog || 2*thr != hetero {
		t.Errorf("mix: %d heterogeneous (%d thresholds), %d homogeneous", hetero, thr, homog)
	}
}

// TestOptimizeCycle checks the optimize-sweep cycle: each vector search
// is paired with a threshold search on the same instance, and sweeps ask
// for a streamed grid.
func TestOptimizeCycle(t *testing.T) {
	ops := newOptimizeGen(5, defaultOptimizeSizes).cycle()
	if len(ops) != 7 {
		t.Fatalf("cycle of %d requests, want 7", len(ops))
	}
	vectors := 0
	for _, op := range ops {
		switch {
		case op.sweep != nil:
			if !op.sweep.Stream || op.sweep.Points != defaultOptimizeSizes.points {
				t.Errorf("%s: %s", op.class, op.body)
			}
		case op.opt.Kind == "vector":
			vectors++
			p := ops[op.pair].opt
			if p == nil || p.Kind != "threshold" || p.Delta != op.opt.Delta || fmt.Sprint(p.Pi) != fmt.Sprint(op.opt.Pi) || p.N != op.opt.N {
				t.Errorf("%s is not paired with a threshold search on its instance", op.class)
			}
		}
		var v map[string]any
		if err := json.Unmarshal(op.body, &v); err != nil {
			t.Errorf("%s body: %v", op.class, err)
		}
	}
	if vectors != 2 {
		t.Errorf("%d vector searches per cycle, want 2", vectors)
	}
}
