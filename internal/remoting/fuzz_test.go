package remoting

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"lakego/internal/cuda"
)

// FuzzUnmarshalCommand: arbitrary bytes must never panic the decoder, and
// anything that decodes must re-encode to a frame that decodes to the same
// command and re-encodes to itself (the AppendCommand fixed point).
func FuzzUnmarshalCommand(f *testing.F) {
	seed, _ := AppendCommand(nil, &Command{
		API: APICuLaunchKernel, Seq: 9, Args: []uint64{1, 2, 3},
		Name: "vecadd", Blob: []byte{1, 2},
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{cmdMagic})
	f.Fuzz(func(t *testing.T, data []byte) {
		names := map[string]string{}
		var cmd, cmd2 Command
		if err := DecodeCommandInto(&cmd, names, data); err != nil {
			return
		}
		re, err := AppendCommand(nil, &cmd)
		if err != nil {
			// Decoded command exceeding wire limits cannot happen: the
			// decoder enforces the same limits.
			t.Fatalf("re-encode failed: %v", err)
		}
		if err := DecodeCommandInto(&cmd2, names, re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if cmd2.API != cmd.API || cmd2.Seq != cmd.Seq || cmd2.TraceID != cmd.TraceID || cmd2.Name != cmd.Name ||
			!slices.Equal(cmd2.Args, cmd.Args) || !bytes.Equal(cmd2.Blob, cmd.Blob) {
			t.Fatal("round trip not stable")
		}
		if re2, _ := AppendCommand(nil, &cmd2); !bytes.Equal(re2, re) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}

// FuzzUnmarshalResponse mirrors FuzzUnmarshalCommand for the response path.
func FuzzUnmarshalResponse(f *testing.F) {
	seed, _ := AppendResponse(nil, &Response{Seq: 1, Result: 2, Vals: []uint64{3}, Blob: []byte{4}})
	f.Add(seed)
	f.Add([]byte{respMagic, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp, resp2 Response
		if err := DecodeResponseInto(&resp, data); err != nil {
			return
		}
		re, err := AppendResponse(nil, &resp)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if err := DecodeResponseInto(&resp2, re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re2, _ := AppendResponse(nil, &resp2); !bytes.Equal(re2, re) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}

// FuzzUnmarshalBatch mirrors FuzzUnmarshalCommand for the batched-infer
// frame: arbitrary bytes must never panic the decoder, and anything that
// decodes must round-trip entry-for-entry through AppendBatch.
func FuzzUnmarshalBatch(f *testing.F) {
	seed, _ := AppendBatch(nil, &Batch{Entries: []BatchEntry{
		{Seq: 1, InOff: 0, OutOff: 128, Count: 4},
		{Seq: 7, InOff: 4096, OutOff: 8192, Count: 1},
	}})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{batchMagic})
	f.Add([]byte{batchMagic, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var bt, bt2 Batch
		if err := UnmarshalBatchInto(&bt, data); err != nil {
			return
		}
		re, err := AppendBatch(nil, &bt)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if err := UnmarshalBatchInto(&bt2, re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !slices.Equal(bt2.Entries, bt.Entries) {
			t.Fatalf("round trip not stable: %+v != %+v", bt.Entries, bt2.Entries)
		}
		if re2, _ := AppendBatch(nil, &bt2); !bytes.Equal(re2, re) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}

// FuzzDaemonFrame: the daemon must answer every frame with a parseable
// response and never panic.
func FuzzDaemonFrame(f *testing.F) {
	good, _ := AppendCommand(nil, &Command{API: APICuMemAlloc, Seq: 1, Args: []uint64{64}})
	f.Add(good)
	f.Add([]byte{0xFF, 0x00})
	for id := APIID(16); id <= 21; id++ { // reserved: the former stream/async ids
		frame, _ := AppendCommand(nil, &Command{API: id, Seq: uint64(id), Args: []uint64{1, 0, 64, 1}})
		f.Add(frame)
	}
	// A shm copy whose offset plus length wraps past MaxInt64.
	wrap, _ := AppendCommand(nil, &Command{API: APICuMemcpyHtoD, Seq: 2, Args: []uint64{1, 1<<63 - 1, 64, 1}})
	f.Add(wrap)
	// A batch whose item widths make 4*width wrap to zero bytes.
	bt, _ := AppendBatch(nil, &Batch{Entries: []BatchEntry{{Seq: 1, InOff: 0, OutOff: 64, Count: 1}}})
	wide, _ := AppendCommand(nil, &Command{API: APIBatchedInfer, Seq: 3, Name: "double",
		Args: []uint64{1, 1, 1, 1, 1 << 62, 1 << 62}, Blob: bt})
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newStack(t)
		if err := s.tr.SendToUser(data); err != nil {
			return
		}
		if n := s.daemon.Pump(); n != 1 {
			t.Fatalf("daemon served %d frames, want 1", n)
		}
		resp, ok := s.tr.RecvInKernel()
		if !ok {
			t.Fatal("no response")
		}
		if err := DecodeResponseInto(new(Response), resp); err != nil {
			t.Fatalf("unparseable response: %v", err)
		}
		// A frame is input: whatever it holds is answered, never a panic.
		for _, e := range s.daemon.Errors() {
			if strings.Contains(e, "panic") {
				t.Fatal(e)
			}
		}
	})
}

// FuzzResponseDemux: arbitrary garbage landing on the kernel-bound
// (response) channel ahead of a real exchange must never panic the
// resilient demux or wedge the stack. The poisoned call may observe a
// spoofed result (the simulated channel has a single trusted writer, so
// spoofing is outside the threat model), but the demux must discard
// non-matching frames and the next call must complete cleanly.
func FuzzResponseDemux(f *testing.F) {
	spoof, _ := AppendResponse(nil, &Response{Seq: 999, Result: 0, Vals: []uint64{7}})
	f.Add(spoof)
	f.Add([]byte{})
	f.Add([]byte{respMagic})
	f.Add([]byte{respMagic, 0, 0, 0})
	f.Add([]byte{0xFF, 0xEE, 0xDD})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newStack(t)
		s.lib.EnableResilience(nil)
		if r := s.lib.CuInit(); r != cuda.Success {
			t.Fatalf("CuInit: %s", r)
		}
		if err := s.tr.SendToKernel(data); err != nil {
			return
		}
		s.lib.CuDeviceGetCount() // must terminate; result may be spoofed
		if _, r := s.lib.CuDeviceGetCount(); r != cuda.Success {
			t.Fatalf("call after garbage was demuxed failed: %s", r)
		}
		if !s.lib.Healthy() {
			t.Fatal("garbage response frame killed the channel")
		}
	})
}

// FuzzUnmarshalHandoff: the migration frame decoder must never panic on
// arbitrary bytes, must reject any frame whose CRC seal does not hold, and
// must round-trip every frame it accepts.
func FuzzUnmarshalHandoff(f *testing.F) {
	seed, _ := MarshalHandoff(&Handoff{
		SrcShard: 1, DstShard: 2,
		Entries: []JournalEntry{{Seq: 7, Frame: []byte{0xE1, 1, 2}}, {Seq: 9}},
	})
	f.Add(seed)
	empty, _ := MarshalHandoff(&Handoff{})
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{handoffMagic})
	if len(seed) > 0 {
		flipped := bytes.Clone(seed)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalHandoff(data)
		if err != nil {
			return
		}
		re, err := MarshalHandoff(h)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		h2, err := UnmarshalHandoff(re)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if h2.SrcShard != h.SrcShard || h2.DstShard != h.DstShard || len(h2.Entries) != len(h.Entries) {
			t.Fatal("handoff round trip not stable")
		}
		for i := range h.Entries {
			if h2.Entries[i].Seq != h.Entries[i].Seq || !bytes.Equal(h2.Entries[i].Frame, h.Entries[i].Frame) {
				t.Fatalf("entry %d round trip not stable", i)
			}
		}
	})
}
