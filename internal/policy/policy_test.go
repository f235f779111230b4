package policy

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lakego/internal/vtime"
)

func noHelpers() HelperSet { return HelperSet{} }

func TestVerifyRejects(t *testing.T) {
	cases := []struct {
		name string
		prog Program
	}{
		{"empty", Program{}},
		{"no exit", Program{{Op: OpMovImm, Dst: 0, Imm: 1}}},
		{"bad reg", Program{{Op: OpMov, Dst: 16}, {Op: OpExit}}},
		{"bad src reg", Program{{Op: OpMov, Dst: 0, Src: 200}, {Op: OpExit}}},
		{"bad opcode", Program{{Op: OpCode(99)}, {Op: OpExit}}},
		{"div zero imm", Program{{Op: OpDivImm, Dst: 0, Imm: 0}, {Op: OpExit}}},
		{"backward jump", Program{{Op: OpMovImm, Dst: 0}, {Op: OpJmp, Off: -1}, {Op: OpExit}}},
		{"zero jump", Program{{Op: OpJmp, Off: 0}, {Op: OpExit}}},
		{"jump oob", Program{{Op: OpJmp, Off: 5}, {Op: OpExit}}},
		{"unknown helper", Program{{Op: OpCall, Imm: 77}, {Op: OpExit}}},
	}
	for _, c := range cases {
		if err := Verify(c.prog, noHelpers()); err == nil {
			t.Errorf("%s: verifier accepted invalid program", c.name)
		}
	}
}

func TestVerifyRejectsOversizedProgram(t *testing.T) {
	p := make(Program, MaxInstructions+1)
	for i := range p {
		p[i] = Instruction{Op: OpMovImm, Dst: 1, Imm: 1}
	}
	p[len(p)-1] = Instruction{Op: OpExit}
	if err := Verify(p, noHelpers()); err == nil {
		t.Fatal("oversized program accepted")
	}
}

func TestRunArithmetic(t *testing.T) {
	// r0 = (7 + 5) * 3 / 2 - 4 = 14
	p := Program{
		{Op: OpMovImm, Dst: 0, Imm: 7},
		{Op: OpAddImm, Dst: 0, Imm: 5},
		{Op: OpMulImm, Dst: 0, Imm: 3},
		{Op: OpDivImm, Dst: 0, Imm: 2},
		{Op: OpSubImm, Dst: 0, Imm: 4},
		{Op: OpExit},
	}
	got, err := Run(p, noHelpers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 14 {
		t.Fatalf("result = %d, want 14", got)
	}
}

func TestRunRegisterOps(t *testing.T) {
	// r1=10, r2=3: r0 = r1*r2 + r1 - r2 = 37; then r0 /= r2 -> 12
	p := Program{
		{Op: OpMovImm, Dst: 1, Imm: 10},
		{Op: OpMovImm, Dst: 2, Imm: 3},
		{Op: OpMov, Dst: 0, Src: 1},
		{Op: OpMul, Dst: 0, Src: 2},
		{Op: OpAdd, Dst: 0, Src: 1},
		{Op: OpSub, Dst: 0, Src: 2},
		{Op: OpDiv, Dst: 0, Src: 2},
		{Op: OpExit},
	}
	got, err := Run(p, noHelpers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Fatalf("result = %d, want 12", got)
	}
}

func TestRunDivByZeroRegisterFaults(t *testing.T) {
	p := Program{
		{Op: OpMovImm, Dst: 0, Imm: 1},
		{Op: OpDiv, Dst: 0, Src: 1}, // r1 == 0
		{Op: OpExit},
	}
	if _, err := Run(p, noHelpers(), 0); err == nil {
		t.Fatal("division by zero register did not fault")
	}
}

func TestRunConditionalJumps(t *testing.T) {
	// if r1 >= 5 -> r0 = 1 else r0 = 0
	mk := func(v int64) Program {
		return Program{
			{Op: OpMovImm, Dst: 1, Imm: v},
			{Op: OpJgeImm, Dst: 1, Imm: 5, Off: 2},
			{Op: OpMovImm, Dst: 0, Imm: 0},
			{Op: OpExit},
			{Op: OpMovImm, Dst: 0, Imm: 1},
			{Op: OpExit},
		}
	}
	for v, want := range map[int64]int64{4: 0, 5: 1, 6: 1, -1: 0} {
		got, err := Run(mk(v), noHelpers(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("v=%d: got %d, want %d", v, got, want)
		}
	}
}

func TestRunHelperCall(t *testing.T) {
	helpers := HelperSet{
		9: func(args [5]int64) int64 { return args[0] + args[1] },
	}
	p := Program{
		{Op: OpMovImm, Dst: 1, Imm: 20},
		{Op: OpMovImm, Dst: 2, Imm: 22},
		{Op: OpCall, Imm: 9},
		{Op: OpExit},
	}
	got, err := Run(p, helpers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("helper result = %d, want 42", got)
	}
}

func TestMovingAverage(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Value() != 0 {
		t.Fatalf("empty Value = %v, want 0", m.Value())
	}
	if got := m.Add(3); got != 3 {
		t.Fatalf("Add(3) = %v, want 3", got)
	}
	m.Add(6)
	if got := m.Value(); got != 4.5 {
		t.Fatalf("Value = %v, want 4.5", got)
	}
	m.Add(9)         // window full: 3,6,9 -> 6
	got := m.Add(12) // evicts 3: 6,9,12 -> 9
	if got != 9 {
		t.Fatalf("windowed average = %v, want 9", got)
	}
}

func TestMovingAverageWindowOne(t *testing.T) {
	m := NewMovingAverage(0) // clamps to 1
	m.Add(5)
	if got := m.Add(11); got != 11 {
		t.Fatalf("window-1 average = %v, want 11", got)
	}
}

func TestAdaptivePolicyProfitabilityGate(t *testing.T) {
	clock := vtime.New()
	a := NewAdaptive(AdaptiveConfig{BatchThreshold: 8, UtilThreshold: 40}, clock,
		func() int { return 0 }) // idle GPU
	if got := a.Decide(4); got != UseCPU {
		t.Fatalf("batch 4 = %v, want CPU (below crossover)", got)
	}
	if got := a.Decide(8); got != UseGPU {
		t.Fatalf("batch 8 = %v, want GPU", got)
	}
}

func TestAdaptivePolicyContentionGate(t *testing.T) {
	clock := vtime.New()
	util := 90
	a := NewAdaptive(DefaultAdaptiveConfig(), clock, func() int { return util })
	if got := a.Decide(1024); got != UseCPU {
		t.Fatalf("contended GPU: %v, want CPU", got)
	}
	// Contention clears; moving average must decay before offload resumes.
	util = 0
	var got Decision
	for i := 0; i < 16; i++ {
		clock.Advance(5 * time.Millisecond)
		got = a.Decide(1024)
	}
	if got != UseGPU {
		t.Fatalf("after contention cleared: %v, want GPU", got)
	}
}

func TestAdaptiveRateLimitsQueries(t *testing.T) {
	clock := vtime.New()
	queries := 0
	a := NewAdaptive(AdaptiveConfig{UtilThreshold: 40, BatchThreshold: 1},
		clock, func() int { queries++; return 0 })
	for i := 0; i < 100; i++ {
		a.Decide(10)
		clock.Advance(100 * time.Microsecond) // 100 calls over 10ms
	}
	if queries > 3 {
		t.Fatalf("utilization queried %d times in 10ms, want <= 3 (5ms rate limit)", queries)
	}
}

func TestFigure3ProgramMatchesNativePolicy(t *testing.T) {
	cases := []struct {
		batch, util int
		want        Decision
	}{
		{16, 0, UseGPU},
		{16, 90, UseCPU}, // contended
		{2, 0, UseCPU},   // unprofitable batch
		{8, 39, UseGPU},  // just under both thresholds
		{8, 40, UseCPU},  // at util threshold -> cpu
	}
	cfg := AdaptiveConfig{UtilThreshold: 40, BatchThreshold: 8}
	for _, c := range cases {
		// Fresh policies per case so prior samples don't bleed through.
		query := func() int { return c.util }
		vm := NewAdaptive(cfg, vtime.New(), query)
		native := newNativeAdaptive(cfg, vtime.New(), query)
		if got, ref := vm.Decide(c.batch), native.Decide(c.batch); got != c.want || ref != c.want {
			t.Errorf("batch=%d util=%d: bytecode %v, native %v, want %v", c.batch, c.util, got, ref, c.want)
		}
	}
}

func TestDecisionString(t *testing.T) {
	if UseCPU.String() != "CPU" || UseGPU.String() != "GPU" {
		t.Fatal("Decision strings wrong")
	}
}

// Property: every verified program terminates (forward-jump-only invariant).
// Generate random-but-verifiable programs and confirm Run returns.
func TestQuickVerifiedProgramsTerminate(t *testing.T) {
	f := func(seed []uint8) bool {
		p := Program{}
		for i, b := range seed {
			if len(p) >= 60 {
				break
			}
			switch b % 5 {
			case 0:
				p = append(p, Instruction{Op: OpMovImm, Dst: b % NumRegs, Imm: int64(b)})
			case 1:
				p = append(p, Instruction{Op: OpAddImm, Dst: b % NumRegs, Imm: int64(b)})
			case 2:
				p = append(p, Instruction{Op: OpMulImm, Dst: b % NumRegs, Imm: 2})
			case 3:
				p = append(p, Instruction{Op: OpJgtImm, Dst: b % NumRegs, Imm: int64(i), Off: 1})
			case 4:
				p = append(p, Instruction{Op: OpSub, Dst: b % NumRegs, Src: (b / 5) % NumRegs})
			}
		}
		// Pad so a trailing Off=1 jump still lands on an instruction.
		p = append(p, Instruction{Op: OpMovImm, Dst: 0, Imm: 0}, Instruction{Op: OpExit})
		if err := Verify(p, noHelpers()); err != nil {
			return false
		}
		_, err := Run(p, noHelpers(), 0)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: moving average always lies within [min, max] of its window.
func TestQuickMovingAverageBounded(t *testing.T) {
	f := func(vals []uint16, w uint8) bool {
		window := int(w%16) + 1
		m := NewMovingAverage(window)
		for i, v := range vals {
			avg := m.Add(float64(v))
			lo, hi := float64(v), float64(v)
			start := i - window + 1
			if start < 0 {
				start = 0
			}
			for _, u := range vals[start : i+1] {
				if float64(u) < lo {
					lo = float64(u)
				}
				if float64(u) > hi {
					hi = float64(u)
				}
			}
			if avg < lo-1e-9 || avg > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Exercise every opcode, including the register-comparison jump variants.
func TestRunAllOpcodes(t *testing.T) {
	helpers := HelperSet{1: func([5]int64) int64 { return 7 }}
	p := Program{
		{Op: OpMovImm, Dst: 1, Imm: 10},
		{Op: OpMovImm, Dst: 2, Imm: 10},
		{Op: OpJeqX, Dst: 1, Src: 2, Off: 1},    // taken
		{Op: OpMovImm, Dst: 0, Imm: -1},         // skipped
		{Op: OpJgeX, Dst: 1, Src: 2, Off: 1},    // taken (equal)
		{Op: OpMovImm, Dst: 0, Imm: -2},         // skipped
		{Op: OpJltX, Dst: 2, Src: 1, Off: 1},    // not taken (equal)
		{Op: OpAddImm, Dst: 3, Imm: 5},          // executed
		{Op: OpJneImm, Dst: 3, Imm: 0, Off: 1},  // taken (5 != 0)
		{Op: OpMovImm, Dst: 0, Imm: -3},         // skipped
		{Op: OpJleImm, Dst: 3, Imm: 5, Off: 1},  // taken (5 <= 5)
		{Op: OpMovImm, Dst: 0, Imm: -4},         // skipped
		{Op: OpJgtImm, Dst: 3, Imm: 99, Off: 1}, // not taken
		{Op: OpCall, Imm: 1},                    // r0 = 7
		{Op: OpJmp, Off: 1},                     // skip the poison
		{Op: OpMovImm, Dst: 0, Imm: -5},
		{Op: OpExit},
	}
	got, err := Run(p, helpers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("result = %d, want 7", got)
	}
}

func TestOpcodeAndErrorStrings(t *testing.T) {
	if OpExit.String() != "exit" || OpCode(250).String() == "" {
		t.Fatal("opcode strings wrong")
	}
	ve := &VerifyError{PC: 3, Reason: "nope"}
	if ve.Error() == "" {
		t.Fatal("empty VerifyError")
	}
	re := &RunError{PC: 1, Reason: "bad"}
	if re.Error() == "" {
		t.Fatal("empty RunError")
	}
}

func TestAdaptiveUtilizationView(t *testing.T) {
	clock := vtime.New()
	a := NewAdaptive(AdaptiveConfig{}, clock, func() int { return 30 })
	a.Decide(1)
	if got := a.Utilization(); got != 30 {
		t.Fatalf("Utilization = %v, want 30", got)
	}
}

func TestNewAdaptiveDefaults(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{}, vtime.New(), func() int { return 0 })
	if len(a.avg.samples) != avgWindow {
		t.Fatalf("moving average spans %d samples, want %d", len(a.avg.samples), avgWindow)
	}
}

func TestVMPolicyRejectsUnverifiable(t *testing.T) {
	query := func() int { return 0 }
	if _, err := Load(Program{{Op: OpJmp, Off: -1}, {Op: OpExit}}, vtime.New(), query); err == nil {
		t.Fatal("verifier bypassed")
	}
	// A helper outside the Fig 3 set is not whitelisted.
	for _, helper := range []int64{0, 2, 3} {
		if _, err := Load(Program{{Op: OpCall, Imm: helper}, {Op: OpExit}}, vtime.New(), query); err == nil {
			t.Fatalf("unknown helper %d accepted", helper)
		}
	}
}

func TestRunPassesCtxInR1(t *testing.T) {
	p := Program{{Op: OpMov, Dst: 0, Src: 1}, {Op: OpMulImm, Dst: 0, Imm: 2}, {Op: OpExit}}
	for _, ctx := range []int64{0, 1, -7, 1 << 40} {
		if got, err := Run(p, noHelpers(), ctx); err != nil || got != 2*ctx {
			t.Fatalf("ctx %d: r0 = %d, %v; want %d", ctx, got, err, 2*ctx)
		}
	}
}

// compileConfigs spans the edges of both thresholds.
func compileConfigs() []AdaptiveConfig {
	var out []AdaptiveConfig
	for _, util := range []int{0, 40, 100, math.MaxInt32} {
		for _, batch := range []int{0, 1, 8, 1024} {
			out = append(out, AdaptiveConfig{UtilThreshold: util, BatchThreshold: batch})
		}
	}
	return out
}

// TestCompileVerifies also pins Compile's output instruction by
// instruction: the contention gate, then the batch gate, then dev_func and
// cpu_func.
func TestCompileVerifies(t *testing.T) {
	for _, cfg := range compileConfigs() {
		if _, err := Load(Compile(cfg), vtime.New(), func() int { return 0 }); err != nil {
			t.Fatalf("Compile(%+v) does not verify: %v", cfg, err)
		}
		want := Program{
			{Op: OpMov, Dst: 6, Src: 1},
			{Op: OpCall, Imm: HelperUtilAvg},
			{Op: OpJgeImm, Dst: 0, Imm: int64(cfg.UtilThreshold), Off: 3},
			{Op: OpJltImm, Dst: 6, Imm: int64(cfg.BatchThreshold), Off: 2},
			{Op: OpMovImm, Dst: 0, Imm: 1},
			{Op: OpExit},
			{Op: OpMovImm, Dst: 0, Imm: 0},
			{Op: OpExit},
		}
		if got := Compile(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("Compile(%+v) =\n%v\nwant\n%v", cfg, got, want)
		}
	}
}

// nativeAdaptive is the Fig 3 decision body as Adaptive.Decide ran it in Go
// before the policy shipped as bytecode; it is the reference the compiled
// program is checked against.
type nativeAdaptive struct {
	cfg   AdaptiveConfig
	clock *vtime.Clock
	query func() int

	mu        sync.Mutex
	avg       *MovingAverage
	lastCheck time.Duration
	checked   bool
}

func newNativeAdaptive(cfg AdaptiveConfig, clock *vtime.Clock, query func() int) *nativeAdaptive {
	return &nativeAdaptive{cfg: cfg, clock: clock, query: query, avg: NewMovingAverage(avgWindow)}
}

func (a *nativeAdaptive) Decide(batchSize int) Decision {
	a.mu.Lock()
	now := a.clock.Now()
	if !a.checked || now-a.lastCheck >= checkInterval {
		a.lastCheck = now
		a.checked = true
		a.mu.Unlock()
		u := a.query() // may itself be a remoted call; don't hold the lock
		a.mu.Lock()
		a.avg.Add(float64(u))
	}
	execRate := a.avg.Value()
	a.mu.Unlock()

	if execRate >= float64(a.cfg.UtilThreshold) {
		return UseCPU // contended: back off regardless of profitability
	}
	if batchSize >= a.cfg.BatchThreshold {
		return UseGPU
	}
	return UseCPU
}

// TestAdaptiveMatchesNative is the differential test: over a seeded grid of
// batch sizes and utilization traces stepped across checkInterval edges,
// the compiled program and the native reference make the same decision at
// every step and the same utilization queries.
func TestAdaptiveMatchesNative(t *testing.T) {
	batches := []int{0, 1, 7, 8, 9, 32, 1024}
	steps := []time.Duration{0, time.Millisecond, checkInterval - 1, checkInterval, checkInterval + 1, 7 * time.Millisecond}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := AdaptiveConfig{UtilThreshold: 40, BatchThreshold: 8}
		trace := make([]int, 64)
		for i := range trace {
			trace[i] = rng.Intn(101)
			if rng.Intn(4) == 0 {
				trace[i] = 40 + rng.Intn(3) - 1 // hug the threshold
			}
		}
		clock := vtime.New()
		var vmQueries, nativeQueries int
		vm := NewAdaptive(cfg, clock, func() int { vmQueries++; return trace[vmQueries%len(trace)] })
		native := newNativeAdaptive(cfg, clock, func() int { nativeQueries++; return trace[nativeQueries%len(trace)] })
		for step := 0; step < 400; step++ {
			clock.Advance(steps[rng.Intn(len(steps))])
			batch := batches[rng.Intn(len(batches))]
			if got, want := vm.Decide(batch), native.Decide(batch); got != want {
				t.Fatalf("seed %d cfg %+v step %d batch %d: bytecode %v, native %v", seed, cfg, step, batch, got, want)
			}
			if vmQueries != nativeQueries || vm.Utilization() != native.avg.Value() {
				t.Fatalf("seed %d cfg %+v step %d: queries %d vs %d, utilization %v vs %v",
					seed, cfg, step, vmQueries, nativeQueries, vm.Utilization(), native.avg.Value())
			}
		}
	}
}

// TestAdaptiveConcurrentDecide pins that the batch size is per call: two
// goroutines deciding on one policy never see each other's batch.
func TestAdaptiveConcurrentDecide(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{UtilThreshold: 40, BatchThreshold: 8}, vtime.New(), func() int { return 0 })
	const n = 200000
	cases := []struct {
		batch int
		want  Decision
	}{{1, UseCPU}, {100, UseGPU}}
	wrong := make([]int, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if a.Decide(c.batch) != c.want {
					wrong[i]++
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range cases {
		if wrong[i] != 0 {
			t.Errorf("Decide(%d): %d of %d decisions wrong", c.batch, wrong[i], n)
		}
	}
}
