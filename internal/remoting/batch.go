package remoting

import (
	"lakego/internal/cuda"
	"lakego/internal/gpu"
)

// This file is the wire half of the cross-client batching subsystem
// (internal/batcher): one APIBatchedInfer command carries many independent
// inference requests, each referencing its own lakeShm slices, and lakeD
// gathers them into a single device launch. Per-request results travel back
// in one response and are demultiplexed by request sequence number.

// BatchEntry describes one client request inside a batched-infer command.
// The request's input lives at InOff in lakeShm (Count items of the model's
// input width) and its output is scattered back to OutOff — only offsets
// cross the boundary, preserving the §4.1 zero-copy property per request.
type BatchEntry struct {
	// Seq is the batcher-assigned request sequence used to demux results.
	Seq uint64
	// InOff / OutOff are lakeShm offsets of the request's slices.
	InOff, OutOff uint64
	// Count is the number of inference items in this request.
	Count uint32
	// TraceID is the member request's flight-recorder correlation key,
	// carried per entry although lakeD records no per-entry event (a dump
	// links members to their flush by seq range). Optional on the wire like
	// Command.TraceID: a batch whose entries are all untraced marshals to
	// the original batchMagic layout byte-for-byte.
	TraceID uint64
}

// Batch is the payload of an APIBatchedInfer command.
type Batch struct {
	Entries []BatchEntry
}

// maxBatchEntries bounds one batched command; a frame beyond it is corrupt.
// It is half maxArgs because each entry produces a (seq, result) pair in the
// response's Vals.
const maxBatchEntries = maxArgs / 2

const (
	batchMagic = 0xB7
	// tracedBatchMagic marks a batch whose entries carry trace IDs: the
	// batchMagic layout with 8 extra bytes per entry. Used only when at
	// least one entry is traced, mirroring cmdMagicTraced.
	tracedBatchMagic = 0xB8
)

// BatchSpec carries the device-side state a batched launch executes
// against: the model's context, kernel handle, staging allocations and item
// widths. The kernel side (internal/batcher) owns these handles; lakeD
// validates them per command like any other remoted handle.
type BatchSpec struct {
	Ctx, Fn       uint64
	DevIn, DevOut gpu.DevPtr
	// InWidth / OutWidth are per-item float32 counts.
	InWidth, OutWidth int
}

// batchSpecFromArgs rebuilds the spec CuBatchedInferInto flattened into the
// command's first six args.
func batchSpecFromArgs(args []uint64) (BatchSpec, bool) {
	if len(args) < 6 {
		return BatchSpec{}, false
	}
	return BatchSpec{
		Ctx: args[0], Fn: args[1],
		DevIn: gpu.DevPtr(args[2]), DevOut: gpu.DevPtr(args[3]),
		InWidth: int(args[4]), OutWidth: int(args[5]),
	}, true
}

// BatchScratch holds a flusher's reusable wire and demux buffers for
// CuBatchedInferInto. One scratch per serialized flusher (the batcher keeps
// one per model, under its execution lock); the zero value is ready to use.
type BatchScratch struct {
	blob    []byte
	results []cuda.Result
}

// CuBatchedInferInto remotes one dynamically formed batch: a single command
// whose entries are independent client requests, under an externally
// assigned trace ID (the batcher allocates one per flush so the command and
// its daemon-side events correlate with the flush span; entries keep their
// member trace IDs; 0 lets the call path assign one). The batch payload is
// marshaled into sc's reusable blob and the per-request results are decoded
// into sc's reusable slice, aligned 1:1 with entries (lakeD answers in entry
// order; the sequence of every pair is verified), so the path is
// allocation-free. A Success command result may still carry per-entry
// failures (e.g. one request's shm range was invalid while the rest
// executed). The returned slice aliases sc and is valid until the next call
// with the same scratch. A nil results slice means the exchange itself
// failed (or the response was not aligned with the request) — callers treat
// every entry as failed with the command-level result.
func (l *Lib) CuBatchedInferInto(model string, spec BatchSpec, entries []BatchEntry, traceID uint64, sc *BatchScratch) ([]cuda.Result, cuda.Result) {
	bt := Batch{Entries: entries}
	blob, err := AppendBatch(sc.blob[:0], &bt)
	sc.blob = blob
	if err != nil {
		return nil, cuda.ErrInvalidValue
	}
	cs := l.newCall(APIBatchedInfer)
	cs.cmd.TraceID = traceID
	cs.cmd.Name = model
	cs.cmd.Args = append(cs.cmd.Args,
		spec.Ctx, spec.Fn, uint64(spec.DevIn), uint64(spec.DevOut),
		uint64(spec.InWidth), uint64(spec.OutWidth))
	cs.cmd.Blob = blob
	if err := l.call(cs); err != nil {
		l.done(cs)
		return nil, failResult(err)
	}
	r := cuda.Result(cs.resp.Result)
	vals := cs.resp.Vals
	results := sc.results[:0]
	aligned := len(vals) == 2*len(entries)
	for i := 0; aligned && i < len(entries); i++ {
		if vals[2*i] != entries[i].Seq {
			aligned = false
			break
		}
		results = append(results, cuda.Result(vals[2*i+1]))
	}
	sc.results = results
	l.done(cs)
	if !aligned {
		if len(vals) == 0 {
			// The daemon rejected the command wholesale (e.g. a bad spec):
			// command-level result, zero per-entry results.
			return results[:0], r
		}
		return nil, cuda.ErrUnknown
	}
	return results, r
}

// batchedInfer is lakeD's side of the batching subsystem: it validates each
// entry, gathers the valid requests' shm slices into the model's device
// input staging area, performs ONE launch over the combined batch, and
// scatters per-request output slices back into lakeShm. Data movement is
// charged as one aggregated DMA per direction — the transfer amortization
// that makes cross-client batching profitable.
func (d *Daemon) batchedInfer(cmd *Command, resp *Response) {
	sc := &d.scratch
	spec, ok := batchSpecFromArgs(cmd.Args)
	if !ok || spec.InWidth <= 0 || spec.OutWidth <= 0 {
		resp.Result = int32(cuda.ErrInvalidValue)
		return
	}
	bt := &sc.bt
	if err := UnmarshalBatchInto(bt, cmd.Blob); err != nil {
		resp.Result = int32(cuda.ErrInvalidValue)
		return
	}
	// Staging pointers are routed to their owning device by the ordinal tag
	// every DevPtr carries; the flush placement already picked the device by
	// choosing which spec to send.
	inMem, errIn := d.api.Bytes(spec.DevIn)
	outMem, errOut := d.api.Bytes(spec.DevOut)
	if errIn != nil || errOut != nil {
		resp.Result = int32(cuda.ErrInvalidValue)
		return
	}

	// Validate and admit entries until staging capacity is exhausted;
	// rejected entries fail individually without sinking the launch. The
	// per-entry result and admission scratch reuse their capacity across
	// flushes (perRes must be re-zeroed: Success is the zero value).
	if cap(sc.perRes) < len(bt.Entries) {
		sc.perRes = make([]cuda.Result, len(bt.Entries))
	} else {
		sc.perRes = sc.perRes[:len(bt.Entries)]
		for i := range sc.perRes {
			sc.perRes[i] = cuda.Success
		}
	}
	perRes := sc.perRes
	admitted := sc.admitted[:0]
	items := 0
	for i, e := range bt.Entries {
		inBytes := int64(e.Count) * int64(4*spec.InWidth)
		outBytes := int64(e.Count) * int64(4*spec.OutWidth)
		switch {
		case e.Count == 0:
			perRes[i] = cuda.ErrInvalidValue
			continue
		case int64(items+int(e.Count))*int64(4*spec.InWidth) > int64(len(inMem)),
			int64(items+int(e.Count))*int64(4*spec.OutWidth) > int64(len(outMem)):
			perRes[i] = cuda.ErrOutOfMemory
			continue
		}
		if _, err := d.region.At(int64(e.InOff), inBytes); err != nil {
			perRes[i] = cuda.ErrInvalidValue
			continue
		}
		if _, err := d.region.At(int64(e.OutOff), outBytes); err != nil {
			perRes[i] = cuda.ErrInvalidValue
			continue
		}
		admitted = append(admitted, i)
		items += int(e.Count)
	}

	if items > 0 {
		// Gather: one aggregated host->device DMA for all admitted slices.
		cursor := 0
		for _, i := range admitted {
			e := bt.Entries[i]
			n := int(e.Count) * 4 * spec.InWidth
			view, _ := d.region.At(int64(e.InOff), int64(n))
			copy(inMem[cursor:cursor+n], view)
			cursor += n
		}
		d.api.ChargeTransferFor(spec.DevIn, int64(cursor))

		sc.launchArgs = [3]uint64{uint64(spec.DevIn), uint64(spec.DevOut), uint64(items)}
		launch := d.api.LaunchKernel(spec.Ctx, spec.Fn, sc.launchArgs[:])
		if launch != cuda.Success {
			for _, i := range admitted {
				perRes[i] = launch
			}
		} else {
			// Scatter: one aggregated device->host DMA back to lakeShm.
			cursor = 0
			total := 0
			for _, i := range admitted {
				e := bt.Entries[i]
				n := int(e.Count) * 4 * spec.OutWidth
				view, _ := d.region.At(int64(e.OutOff), int64(n))
				copy(view, outMem[cursor:cursor+n])
				cursor += n
				total += n
			}
			d.api.ChargeTransferFor(spec.DevOut, int64(total))
		}
	}

	sc.admitted = admitted
	resp.Result = int32(cuda.Success)
	resp.Vals = resp.Vals[:0]
	for i, e := range bt.Entries {
		resp.Vals = append(resp.Vals, e.Seq, uint64(uint32(perRes[i])))
	}
}
