package offload_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/malware"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/offload"
	"lakego/internal/policy"
	"lakego/internal/sched"
)

// Every workload is a descriptor plus a per-row decoder on offload.Model, so
// one batch must get the same predictions on every route: the CPU path, LAKE
// with and without the synchronous copy, the policy-routed path on either
// decision and on the CPU fallback once lakeD is dead, and the cross-client
// batcher.
func TestWorkloadRoutesAgree(t *testing.T) {
	t.Run("linnos", func(t *testing.T) {
		rt := boot(t)
		pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([][]float32, 16)
		for i := range batch {
			batch[i] = linnos.FeatureVector(i*7, []time.Duration{time.Duration(i) * 300 * time.Microsecond})
		}
		checkRoutes(t, rt, pred.Model, batch)
	})
	t.Run("kml", func(t *testing.T) {
		rt := boot(t)
		c, err := kml.New(rt, nn.New(9, kml.Sizes()...))
		if err != nil {
			t.Fatal(err)
		}
		var batch [][]float32
		for _, s := range kml.Dataset(1000, 4) {
			batch = append(batch, s.X)
		}
		checkRoutes(t, rt, c.Model, batch)
	})
	t.Run("mllb", func(t *testing.T) {
		rt := boot(t)
		b, err := mllb.New(rt, nn.New(2, mllb.Sizes()...))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([][]float32, 32)
		for i := range batch {
			f := sched.Features{SrcQueueLen: i, DstQueueLen: 1, SrcLoad: float64(i), Imbalance: float64(i) / 32}
			batch[i] = f.Vector()
		}
		checkRoutes(t, rt, b.Model, batch)
	})
	t.Run("malware", func(t *testing.T) {
		rt := boot(t)
		w, err := malware.NewWorkload(16, 3)
		if err != nil {
			t.Fatal(err)
		}
		refs, labels := w.Dataset(512)
		det, err := malware.NewDetector(rt, refs, labels, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		queries, _ := w.Dataset(64)
		checkRoutes(t, rt, det.Model, queries)
	})
}

// checkRoutes runs batch through every route of m, the dead-daemon fallback
// last since it closes rt, and requires the CPU path's predictions from all
// of them.
func checkRoutes[T comparable](t *testing.T, rt *core.Runtime, m offload.Model[T], batch [][]float32) {
	t.Helper()
	want, _ := m.InferCPU(batch)
	if len(want) != len(batch) {
		t.Fatalf("InferCPU returned %d predictions for %d rows", len(want), len(batch))
	}
	if !slices.ContainsFunc(want, func(p T) bool { return p != want[0] }) {
		t.Fatalf("every row decodes to %v: agreement would prove nothing", want[0])
	}
	check := func(route string, got []T, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %v, InferCPU = %v", route, got, want)
		}
	}
	auto := func(route string, pol policy.Func, wantDec policy.Decision) {
		t.Helper()
		got, dec, _, err := m.InferAuto(batch, pol)
		check(route, got, err)
		if dec != wantDec {
			t.Fatalf("%s ran on %v, want %v", route, dec, wantDec)
		}
	}

	got, _, err := m.InferLAKE(batch, false)
	check("InferLAKE(async)", got, err)
	got, _, err = m.InferLAKE(batch, true)
	check("InferLAKE(sync)", got, err)
	auto("InferAuto(UseGPU)", func(int) policy.Decision { return policy.UseGPU }, policy.UseGPU)
	auto("InferAuto(UseCPU)", func(int) policy.Decision { return policy.UseCPU }, policy.UseCPU)

	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	b := batcher.New(rt, cfg)
	if err := m.Runner().EnableBatching(b); err != nil {
		t.Fatal(err)
	}
	got, err = m.InferBatched(b.Client("c"), batch)
	check("InferBatched", got, err)
	if st := b.Stats(); st.Requests != 1 || st.Flushes == 0 {
		t.Fatalf("batcher stats after one InferBatched: %+v", st)
	}

	rt.Close() // the next remoted call latches lakeD dead
	auto("InferAuto(daemon dead)", nil, policy.UseCPU)
}

func boot(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}
