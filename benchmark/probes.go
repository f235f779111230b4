package main

import (
	"time"

	"lakego/internal/boundary"
	"lakego/internal/flightrec"
	"lakego/internal/remoting"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// Probes time one layer's public functions stand-alone, on the workload's
// own inputs and live objects, at the end of the traced pass. Their medians
// feed the wall ledger: count x probe p50, summed over layers, against the
// timed wall.

// probe times fn in `samples` spans of `per` calls each and returns the
// median nanoseconds per call. Batching keeps the two clock reads out of
// sub-microsecond measurements.
func probe(tr *tracer, name string, samples, per int, fn func()) float64 {
	durs := make([]int64, samples)
	for s := range durs {
		id := tr.begin("probe."+name, 0)
		for i := 0; i < per; i++ {
			fn()
		}
		tr.end(id)
		durs[s] = tr.spans[id].End - tr.spans[id].Start
	}
	return float64(percentile(sortedCopy(durs), 0.50)) / float64(per)
}

// probeMetrics runs every probe on the live stack and records its spans.
// launchGap is the virtual time between launches on one device during the
// timed rounds.
func probeMetrics(m map[string]float64, st *stack, tr *tracer, launchGap time.Duration) {
	rt := st.runtimes[0]

	m["remoting.call_ns_p50"] = probe(tr, "remoting.call", 2000, 1, func() { rt.Lib().CuDeviceGetCount() })

	// Codec: the launch command a remoted inference sends, and its response.
	cmd := remoting.Command{API: remoting.APICuLaunchKernel, Seq: 1 << 20, TraceID: 1 << 20,
		Args: []uint64{1, 2, 0x1000, 0x2000, 1}}
	resp := remoting.Response{Seq: cmd.Seq, Vals: []uint64{0}}
	var cmdOut remoting.Command
	var respOut remoting.Response
	names := map[string]string{}
	var cbuf, rbuf []byte
	m["remoting.codec_ns_per_cmd"] = probe(tr, "remoting.codec", 200, 100, func() {
		cbuf, _ = remoting.AppendCommand(cbuf[:0], &cmd)
		_ = remoting.DecodeCommandInto(&cmdOut, names, cbuf) // a frame AppendCommand just built decodes
		rbuf, _ = remoting.AppendResponse(rbuf[:0], &resp)
		_ = remoting.DecodeResponseInto(&respOut, rbuf)
	})

	batch := remoting.Batch{}
	for i := 0; i < fleetMaxBatch; i++ {
		batch.Entries = append(batch.Entries, remoting.BatchEntry{
			Seq: uint64(i), InOff: uint64(64 * i), OutOff: uint64(1<<20 + 64*i), Count: 1, TraceID: uint64(i + 1)})
	}
	var batchOut remoting.Batch
	var bbuf []byte
	m["remoting.batch_codec_ns_per_item"] = probe(tr, "remoting.batch_codec", 200, 100, func() {
		bbuf, _ = remoting.AppendBatch(bbuf[:0], &batch)
		_ = remoting.UnmarshalBatchInto(&batchOut, bbuf)
	}) / fleetMaxBatch

	// Boundary: a command-sized frame out and a response-sized frame back
	// over a private ring, on one goroutine — lakeLib pumps lakeD
	// synchronously, so the program's own crossing has no hand-off either.
	ring, err := boundary.NewRingTransport(vtime.New(), nil, 64, boundary.DefaultSlotBytes)
	if err == nil {
		m["boundary.roundtrip_ns_p50"] = probe(tr, "boundary.roundtrip", 200, 100, func() {
			_ = ring.SendToUser(cbuf) // the ring is drained every iteration, so it is never full
			ring.RecvInUser()
			_ = ring.SendToKernel(rbuf)
			ring.RecvInKernel()
		})
		ring.Close()
	}

	// The workload's own device, history and all, launching nothing at the
	// workload's own cadence: each Execute advances the clock by launchGap,
	// so right of the 5 s utilisation window it retires old spans at the
	// rate the timed rounds did.
	dev := rt.Device()
	m["gpu.execute_ns_p50"] = probe(tr, "gpu.execute", 200, 1, func() { dev.Execute("probe", launchGap, nil) })

	fwd, flops, staged := 0.0, 0.0, 0.0
	for _, mod := range st.models {
		i := 0
		ns := probe(tr, "nn.forward."+mod.name, 200, 16, func() {
			mod.net.Forward(mod.pool[i%poolSize])
			i++
		})
		fwd += mod.share * ns
		flops += mod.share * mod.net.Flops()
		staged += mod.share * float64(4*(mod.net.InputSize()+mod.net.OutputSize()))
	}
	m["nn.forward_ns_p50"] = fwd
	m["nn.flops_per_req"] = flops
	// Computed from tensor sizes, not measured: input plus output floats.
	m["shm.staged_bytes_per_req"] = staged

	region := rt.Region()
	size := int64(4 * st.models[0].net.InputSize())
	m["shm.alloc_free_ns_p50"] = probe(tr, "shm.alloc_free", 200, 100, func() {
		if b, err := region.Alloc(size); err == nil {
			_ = region.Free(b) // b came from this region
		}
	})

	rec := flightrec.New(vtime.New(), 0)
	rec.SetEnabled(true)
	m["flightrec.emit_ns_p50"] = probe(tr, "flightrec.emit", 200, 1000, func() {
		rec.Emit(flightrec.DomainKernel, flightrec.EvCallStart, 1, 1, 0, 1, 2, 3)
	})

	regs := []*telemetry.Registry{}
	for _, r := range st.runtimes {
		regs = append(regs, r.Telemetry())
	}
	m["telemetry.snapshot_us"] = probe(tr, "telemetry.snapshot", 20, 1, func() { telemetry.MergedSnapshot(regs...) }) / 1e3

	if len(st.clients) > 0 {
		i := 0
		m["fleet.route_ns_p50"] = probe(tr, "fleet.route", 200, 64, func() {
			_, _ = st.clients[i%len(st.clients)].Route() // placement was decided in warm-up; Route only looks it up
			i++
		})
	}
}
