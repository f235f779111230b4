package main

import (
	"slices"
	"testing"

	lake "lakego"
)

// TestMetricsWorkloadRepeats runs both -metrics workloads twice, the
// single-runtime demo and the -shards 2 fleet storm, and pins what the
// virtual clock promises of them: the same remoted calls, tenant placements
// and per-shard requests on every run.
func TestMetricsWorkloadRepeats(t *testing.T) {
	counts := func() []int64 {
		rt, err := bootInstrumented(1, lake.PoolContentionAware)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		f, err := bootFleet(2, lake.PoolRoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		c := []int64{rt.Stats().RemotedCalls, f.Stats().Placements}
		for _, sh := range f.Shards() {
			c = append(c, sh.Batcher().Stats().Requests)
		}
		return c
	}
	a, b := counts(), counts()
	t.Logf("remoted calls, placements, per-shard requests: %v", a)
	if !slices.Equal(a, b) {
		t.Fatalf("counts differ between runs: %v vs %v", a, b)
	}
	// The demo remotes 32 copy-launch-copy rounds; the storm places four
	// tenants and sends 32 requests each.
	if len(a) != 4 || a[0] < 96 || a[1] != 4 || a[2]+a[3] != 128 {
		t.Fatalf("counts %v, want >= 96 calls, 4 placements and 128 requests over 2 shards", a)
	}
}
