package main

import (
	"strings"
	"testing"
	"time"
)

// TestInfeasibleDesignFailsFast: a recipe no optical circuit can run
// (order 17 > core.MaxOrder) fails before either image pass — within
// 1 s even at 2^20-bit streams, where the electronic pass alone takes
// seconds.
func TestInfeasibleDesignFailsFast(t *testing.T) {
	start := time.Now()
	err := run(0.45, 17, 128, 1<<20, 0.2, "", "", 42)
	if err == nil || !strings.Contains(err.Error(), "MaxOrder") {
		t.Fatalf("err = %v, want one naming MaxOrder", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("run took %v to reject the recipe, want under 1 s", d)
	}
}
