package lake_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// nameKind is what a deleted-name row's pattern is matched against.
type nameKind int

const (
	// ident: every identifier, declared or referenced — a func, type, var,
	// const, field, method, selector, key or label name. Comments and string
	// literals do not match.
	ident nameKind = iota
	// importPath: an import's path.
	importPath
	// flagName: the name a flag.* call defines (the first argument, the
	// second for a flag.*Var call).
	flagName
	// shape: the source form of a selector, pointer type, index, call or
	// func declaration, as shapeOf renders it: "binary.LittleEndian.Uint32(…)",
	// "d.mu.Lock()", "*shm.Buffer", "FreeList[callState]", "(*Lib) resilience()".
	shape
	// literal: a basic literal's value — a string's unquoted text, a
	// number's source text.
	literal
)

var kindNames = [...]string{"ident", "import", "flag", "shape", "literal"}

func (k nameKind) String() string { return kindNames[k] }

// deletedName is one row of the deleted-names table: a pattern that must not
// match anywhere in its scope.
type deletedName struct {
	kind    nameKind
	pattern string   // a Go regexp, unanchored: ^...$ matches a whole name
	except  string   // a regexp: a match that it also matches is allowed
	dirs    []string // scope: these module directories and below; nil is the module
	noTests bool     // skip _test.go files
	skip    string   // skip files of this base name
	reason  string
}

// deletedNames lists the names, imports, flags, shapes and literals whose
// code was deleted. A match means the deleted design is coming back.
var deletedNames = []deletedName{
	// The stream/event plane, the recorder's sampling knob and the binary dump
	// parser had no caller but their own tests.
	{kind: shape, pattern: `gpu\.Stream`, reason: "one asynchrony model: no gpu stream plane"},
	{kind: ident, pattern: `NewStream|StreamCreate|StreamSynchronize|Memcpy(HtoD|DtoH)Async|LaunchKernelAsync|SetSampleEvery|decodeBinary`,
		reason: "one asynchrony model, an always-sampling recorder and one dump format"},
	// A fleet request is one lakeShm slot held by value. (offload and kleio
	// keep their one-time inBuf/outBuf pairs, hence the scope.)
	{kind: ident, pattern: `^(inBuf|outBuf)$`, dirs: []string{"internal/batcher", "internal/fleet"},
		reason: "a fleet request stages through one slot, not two buffers"},
	{kind: shape, pattern: `\*shm\.Buffer`, reason: "a slot is held by value, not through a pointer Buffer"},
	// A flush costs O(1) recorder events and the coarse wall clock keys on the
	// ring index.
	{kind: ident, pattern: `EvFlushMember|flush_member|wallSeq`, reason: "flush members link by seq range; the wall clock keys on the ring index"},
	{kind: literal, pattern: `flush_member`, reason: "the per-member flush event's label"},
	// A remoted call costs three recorder events; only flightrec's readers
	// name the retired launch and route kinds, for older dumps.
	{kind: ident, pattern: `EvMarshal|EvDemux|EvChannel|EvExecStart|EvRespond`, reason: "folded into their neighbours' payloads"},
	{kind: shape, pattern: `flightrec\.(EvLaunch|EvRoute)\b`, noTests: true, reason: "the launch rides on EvExec and the route hop on EvEnqueue"},
	// The transport's exchange lock owns everything a remoted call touches.
	{kind: ident, pattern: `^lockedRand$`, dirs: []string{"internal/remoting"}, reason: "no second lock over the exchange's own state"},
	{kind: shape, pattern: `\) resilience\(\)`, dirs: []string{"internal/remoting"}, reason: "no second lock over the exchange's own state"},
	{kind: ident, pattern: `^(callMu|pumpMu)$`, reason: "no per-side locks: one exchange lock"},
	{kind: shape, pattern: `FreeList\[callState\]`, reason: "no call-state free list"},
	{kind: shape, pattern: `d\.mu\.(Lock|Unlock)\(\)`, dirs: []string{"internal/boundary"}, reason: "no per-ring lock"},
	// One reader decodes every remoting frame, and seal/openFrame alone touch
	// the CRC trailer.
	{kind: shape, pattern: `crc32\.|LittleEndian\.Uint(16|32|64)\(`, dirs: []string{"internal/remoting"}, noTests: true, skip: "protocol.go",
		reason: "no second hand-rolled decoder or trailer outside protocol.go"},
	// Fig 3 has one implementation, the compiled program Adaptive runs with
	// the batch size in r1.
	{kind: ident, pattern: `^VMPolicy$|Figure3Helpers|HelperGetBatchSize|HelperGetGPUUtil|HelperMovAvg|HealthGated`,
		reason: "no native decision body and no second bytecode wrapper"},
	// The boundary carries one call at a time: one lock per ring direction,
	// nothing parks on a doorbell, and the ring depth is a core constant.
	{kind: importPath, pattern: `lakego/internal/ringbuf`, reason: "the rings live in boundary"},
	{kind: ident, pattern: `newDoorbell|bellParked|^QueueDepth$`, reason: "nothing parks on a doorbell; the ring depth is not a knob"},
	// The device pool and the fleet router pick members through one engine,
	// gpupool.Placer. (The differential test keeps the old copies as its
	// reference.)
	{kind: ident, pattern: `leastOutstandingLocked|contentionAwareLocked|UtilThreshold`, dirs: []string{"internal/gpupool", "internal/fleet"}, noTests: true,
		reason: "no second copy of a placement policy and no threshold the engine never reads"},
	{kind: shape, pattern: `\beligible\(`, dirs: []string{"internal/gpupool", "internal/fleet"}, noTests: true,
		reason: "no eligibility filter the engine never reads"},
	// Settings that no production caller set are unexported constants at
	// their old defaults (the registry and the recorder are always on).
	{kind: ident, pattern: `DisableFlightRecorder|FailThreshold|HeartbeatInterval|RestartCost|FastBurn|SlowBurn|MaxIncidents|StallPolls|ShadowWindow|DriftBadWindows|GPUBatchThreshold|InferLanes|ReissuePenalty|ConfirmEvals|MigrationPenalty`,
		reason: "a constant at its old default, not a knob"},
	// Every runtime is observed and laked is the one observability demo.
	{kind: ident, pattern: `DisableTelemetry|bootInstrumented|runMetricsDemo`, reason: "no telemetry off-switch and no second demo in lakebench"},
	{kind: literal, pattern: `no-telemetry`, reason: "laked's telemetry off-switch flag"},
	// Performance has one record: ./benchmark pairs through cmd/benchdiff,
	// plus exact goldens.
	{kind: ident, pattern: `BENCH_BASELINE|BENCH_RESULTS|writeFleetResults|benchResults`, reason: "no committed baseline, results file or geomean gate"},
	{kind: literal, pattern: `BENCH_BASELINE|BENCH_RESULTS`, reason: "no committed baseline or results file"},
	// core is a leaf runtime: each layer on it attaches itself and callers
	// own their features.Store; lake's facade funcs are the only New* calls
	// of these names left.
	{kind: shape, pattern: `\.(NewBatcher|NewLifecycle|NewHealthPlane|ModelLifecycles|Features)\(`, except: `^lake\.New`,
		reason: "layers attach with batcher.New, lifecycle.New, healthplane.Attach"},
	{kind: shape, pattern: `\) (NewBatcher|NewLifecycle|NewHealthPlane|ModelLifecycles|Features)\(`,
		reason: "the runtime composes no layer"},
	{kind: ident, pattern: `SetModelSource`, reason: "a plane reads lifecycle managers only through their recorder events"},
	// Workloads embed offload.Model[T] and supply only a per-row decoder.
	// (kleio's ClassifyLAKE is the §4.4 high-level-API route, hence the
	// scope.)
	{kind: ident, pattern: `ClassifyCPU|ClassifyLAKE|ClassifyAuto|DetectCPU|DetectLAKE|WaitSlow|slowOf|argmax1|argmaxAll|toLabels`,
		dirs:   []string{"internal/linnos", "internal/kml", "internal/mllb", "internal/malware"},
		reason: "no per-workload CPU/LAKE/Auto/batched wrapper or decode loop"},
	// Fig 3 is two thresholds over one helper, the flight recorder is the
	// supervisor's only audit log, and every pool device is the one
	// gpu.DefaultSpec() model.
	{kind: ident, pattern: `UseObservedLatency|LatencyQuantile|LatencySource|SetLatencySources|HelperItemLatency|QuantileDuration|CheckInterval`,
		reason: "no observed-latency mode or settable check interval"},
	{kind: shape, pattern: `\.Transitions\(`, reason: "the flight recorder is the supervisor's only audit log"},
	{kind: ident, pattern: `^Specs$`, dirs: []string{"internal/gpupool", "internal/core"}, reason: "every pool device is gpu.DefaultSpec()"},
	// One drive model, one benefit monitor and shards booted by ordinal; the
	// syscall/PMU trace synthesis no experiment read stays deleted.
	{kind: ident, pattern: `^(DeviceConfig|BenefitConfig|ShardLabel|ShardOrdinal|SyscallDataset|PMUDataset|EmitPMU|WindowFeatures)$`,
		reason: "calibrations and per-shard overrides are not settings"},
	// A remoted call runs one retry schedule of unexported constants.
	{kind: ident, pattern: `^(RetryPolicy|DefaultRetryPolicy|DefaultResilience|CallDeadline|ErrDeadlineExceeded|BackoffFor)$|deadline_exceeded`,
		reason: "no settable retry policy and no per-call deadline"},
	{kind: literal, pattern: `deadline_exceeded`, reason: "the per-call deadline's failure reason label"},
	// Each remoting frame kind has one layout: commands 0xC2 and batches
	// 0xB8 always carry their trace words.
	{kind: ident, pattern: `cmdMagicTraced|tracedBatchMagic`, reason: "no second magic names"},
	{kind: literal, pattern: `0x(C1|c1|B7|b7)\b`, dirs: []string{"internal/remoting"}, noTests: true, reason: "no untraced 0xC1/0xB7 layouts"},
	// lakeD has one liveness path: calls report to the supervisor, and a call
	// that gives the daemon up leaves it Dead for good.
	{kind: ident, pattern: `^(SupervisorConfig|MaxRestarts|Supervision|APIPing|lakePing|MarkRecovered|beatOK|heartbeatInterval)$`,
		reason: "no heartbeat, heartbeat command or restart budget"},
	{kind: shape, pattern: `\.Ping\(\)|\bGeneration\(\)`, reason: "no heartbeat and no daemon generation"},
	// laked runs one demo, the vector-add and high-level sum burst, on two
	// flags: no fleet demo, no lifecycle demo, and a fixed burst.
	{kind: flagName, pattern: `^(shards|router-policy|devices|pool-policy|online-train|train-samples|retrain-minibatch|retrain-round|drift-window|drift-tolerance)$`,
		dirs: []string{"cmd"}, reason: "no demo selected by a topology or online-training flag; no command boots a fleet or a lifecycle manager from flags"},
	{kind: flagName, pattern: `^(calls|n|serve)$`, dirs: []string{"cmd/laked"},
		reason: "the burst is fixed, and -telemetry-addr alone serves until interrupted"},
	{kind: ident, pattern: `^(runFleetDemo|runLifecycleDemo)$`, reason: "laked's one demo is the vector-add burst"},
	// A replay is observed after it ends, through its results: no live hook
	// into the drive loop and no loopback scrape of a health plane.
	{kind: flagName, pattern: `^live-slo$`, dirs: []string{"cmd"}, reason: "no live health-plane scrape during a replay"},
	{kind: ident, pattern: `^(RunObserver|Observer)$`, dirs: []string{"internal/loadgen", "cmd/lakeload"}, reason: "no live hook in loadgen's drive loop"},
	// The health plane is the one laked builds: one runtime, fixed windows
	// and objectives, and drift read from the lifecycle events on the
	// runtime's recorder — no fleet plane, no stall watchdog, no manager
	// handed to it and no registry route.
	{kind: ident, pattern: `^(AttachFleet|NewFleetHealthPlane|HealthPlaneConfig|SLOObjective|SetDemotionHook|demotePing|stallPolls)$`,
		reason: "one plane over one runtime, configured by constants; drift comes from recorder events"},
	{kind: literal, pattern: `^/models\.json$`, noTests: true, reason: "the plane serves no registry route (tests pin its 404)"},
	{kind: shape, pattern: `\(\*Plane\) Watch\(|[Pp]lane\.Watch\(`, reason: "a plane is handed no lifecycle manager"},
	// The model lifecycle is one manager built one way on constants: its
	// versions sit under the manager's one lock, an operator installs a
	// model with Promote, and lake re-exports no lifecycle constructor.
	{kind: ident, pattern: `^(DefaultLifecycleConfig|NewLifecycle|RegisterBlob|WrapPolicy|PromoteVersion)$`,
		reason: "one lifecycle constructor, lifecycle.New, and one install path, Promote"},
	{kind: shape, pattern: `lifecycle\.(NewManager|Config|DefaultConfig|Meta)\b`,
		reason: "one lifecycle constructor on constants, and a version carries no provenance"},
	{kind: ident, pattern: `^(NewManager|NewRegistry|Config|fillDefaults|Meta|Minibatch|RoundSamples|DriftWindow|DriftTolerance)$`, dirs: []string{"internal/lifecycle"},
		reason: "one lifecycle constructor on constants, and a version carries no provenance"},
	// A retired fleet shard keeps its journal: a lakeLib sends only to its
	// own shard's lakeD, so no other daemon needs it, and Drain and Kill
	// move a shard from Active to Dead in one step.
	{kind: ident, pattern: `^(MarshalHandoff|UnmarshalHandoff|ExportJournal|ImportJournal|HandoffBytes|JournalEntries)$`,
		reason: "no cross-shard journal transfer: exactly-once is each shard's own journal"},
	{kind: ident, pattern: `^Draining$`, reason: "no Draining state: a drain does not wait for in-flight requests"},
}

// TestDeletedNamesStayDeleted checks the module against deletedNames with
// go/parser: a row matches identifiers, imports, flag names, code shapes or
// literals as its kind says, never comments, and only rows of kind literal
// match string text, so a test named after a deleted field is no match.
func TestDeletedNamesStayDeleted(t *testing.T) {
	files, err := parseModule(".")
	if err != nil {
		t.Fatal(err)
	}
	// This file's own string literals are the table's patterns.
	rest := files[:0]
	for _, f := range files {
		if f.path != "deleted_test.go" {
			rest = append(rest, f)
		}
	}
	for _, hit := range deletedUses(rest, deletedNames) {
		t.Error(hit)
	}

	// One planted violation per kind, beside near misses: the name in a
	// comment and in a string, the same shape in scope's excluded files.
	for _, c := range []struct {
		row  deletedName
		src  map[string]string
		want []string
	}{
		{deletedName{kind: ident, pattern: `^Gone$`},
			map[string]string{
				"a/a.go": "package a\n\n// Gone is mentioned in a comment.\nvar s = \"Gone=false\"\n\ntype T struct{ Gone int }\n\nfunc (T) Gone2() {}\n",
				"b/b.go": "package b\n\nfunc Gone() {}\n",
				"c/c.go": "package c\n\nimport \"example/a\"\n\nvar _ = a.T{}.Gone\n",
				"d/d.go": "package d\n\nvar x = struct{ Y int }{Y: Gone}\n\nconst Gone = 1\n",
				"e/e.go": "package e\n\nfunc f() {\nGone:\n\tgoto Gone\n}\n",
			},
			[]string{"a/a.go:6", "b/b.go:3", "c/c.go:5", "d/d.go:3", "d/d.go:5", "e/e.go:4", "e/e.go:5"}},
		{deletedName{kind: importPath, pattern: `^example/gone$`},
			map[string]string{
				"a/a.go": "package a\n\nimport _ \"example/gone\"\n\nvar s = \"example/gone\"\n",
				"b/b.go": "package b\n\nimport _ \"example/gone/kept\"\n",
			},
			[]string{"a/a.go:3"}},
		{deletedName{kind: flagName, pattern: `^gone$`},
			map[string]string{
				"a/a.go": "package a\n\nimport \"flag\"\n\nvar (\n\tg = flag.Bool(\"gone\", false, \"\")\n\tk = flag.Bool(\"kept\", false, \"gone\")\n\tv bool\n)\n\nfunc init() { flag.BoolVar(&v, \"gone\", false, \"\") }\n",
			},
			[]string{"a/a.go:6", "a/a.go:11"}},
		{deletedName{kind: shape, pattern: `d\.mu\.Lock\(\)|\*x\.Buf\b|\) gone\(\)|\.New\(`, except: `^ok\.`, dirs: []string{"a"}, noTests: true, skip: "skip.go"},
			map[string]string{
				"a/a.go":      "package a\n\n// d.mu.Lock()\nfunc f(d D, b *x.Buf) {\n\td.mu.Lock()\n\t_ = ok.New(1)\n\t_ = no.New(1)\n\t_ = \"d.mu.Lock()\"\n}\n\nfunc (D) gone() {}\n",
				"a/skip.go":   "package a\n\nfunc g(d D) { d.mu.Lock() }\n",
				"a/a_test.go": "package a\n\nfunc h(d D) { d.mu.Lock() }\n",
				"b/b.go":      "package b\n\nfunc g(d D) { d.mu.Lock() }\n",
			},
			[]string{"a/a.go:4", "a/a.go:5", "a/a.go:7", "a/a.go:11"}},
		{deletedName{kind: literal, pattern: `gone_label|^0xC1$`},
			map[string]string{
				"a/a.go": "package a\n\n// gone_label\nvar (\n\ts = \"lake_x{reason=\\\"gone_label\\\"}\"\n\tm = 0xC1\n\tn = 0xC10\n\tgone_label = 1\n)\n",
			},
			[]string{"a/a.go:5", "a/a.go:6"}},
	} {
		t.Run("planted/"+c.row.kind.String(), func(t *testing.T) {
			root := t.TempDir()
			for path, src := range c.src {
				if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(root, path), []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			files, err := parseModule(root)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, hit := range deletedUses(files, []deletedName{c.row}) {
				got = append(got, hit.at)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("planted violations: matched at %v, want %v", got, c.want)
			}
		})
	}
}

// deletedUse is one match of a deleted-name row.
type deletedUse struct {
	at    string // file:line
	match string
	row   deletedName
}

func (u deletedUse) String() string {
	return fmt.Sprintf("%s: %q matches deleted %s `%s`: %s", u.at, u.match, u.row.kind, u.row.pattern, u.row.reason)
}

// deletedUses returns every match of rows in files, one per row and line, in
// file and line order.
func deletedUses(files []moduleFile, rows []deletedName) []deletedUse {
	re := make([]*regexp.Regexp, len(rows))
	except := make([]*regexp.Regexp, len(rows))
	for i, r := range rows {
		re[i] = regexp.MustCompile(r.pattern)
		if r.except != "" {
			except[i] = regexp.MustCompile(r.except)
		}
	}
	// matches memoizes, per kind and text, the rows whose pattern matches:
	// most names recur across the module.
	matches := map[string][]int{}
	var out []deletedUse
	for _, f := range files {
		in := make([]bool, len(rows))
		for i, r := range rows {
			in[i] = r.inScope(f)
		}
		seen := map[string]bool{}
		report := func(k nameKind, s string, pos token.Pos) {
			key := k.String() + "\x00" + s
			hits, ok := matches[key]
			if !ok {
				for i, r := range rows {
					if r.kind == k && re[i].MatchString(s) && (except[i] == nil || !except[i].MatchString(s)) {
						hits = append(hits, i)
					}
				}
				matches[key] = hits
			}
			for _, i := range hits {
				if !in[i] {
					continue
				}
				at := fmt.Sprintf("%s:%d", f.path, f.fset.PositionFor(pos, false).Line)
				if key := at + "\x00" + rows[i].pattern; !seen[key] {
					seen[key] = true
					out = append(out, deletedUse{at, s, rows[i]})
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				report(ident, n.Name, n.Pos())
			case *ast.ImportSpec:
				path, _ := strconv.Unquote(n.Path.Value)
				report(importPath, path, n.Pos())
			case *ast.BasicLit:
				v := n.Value
				if n.Kind == token.STRING || n.Kind == token.CHAR {
					v, _ = strconv.Unquote(v)
				}
				report(literal, v, n.Pos())
			case *ast.FuncDecl:
				report(shape, declShape(n), n.Pos())
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
						arg := n.Args[0]
						if strings.HasSuffix(sel.Sel.Name, "Var") && len(n.Args) > 1 {
							arg = n.Args[1]
						}
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, _ := strconv.Unquote(lit.Value)
							report(flagName, name, lit.Pos())
						}
					}
				}
				report(shape, shapeOf(n), n.Pos())
			case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr, *ast.IndexListExpr:
				report(shape, shapeOf(n.(ast.Expr)), n.Pos())
			}
			return true
		})
	}
	return out
}

// inScope reports whether a row checks file f.
func (r deletedName) inScope(f moduleFile) bool {
	if r.noTests && f.test || r.skip != "" && filepath.Base(f.path) == r.skip {
		return false
	}
	if r.dirs == nil {
		return true
	}
	for _, d := range r.dirs {
		if f.dir == d || strings.HasPrefix(f.dir, d+"/") {
			return true
		}
	}
	return false
}

// shapeOf renders an expression's source form without comments, spacing or
// arguments: a call is its function's shape followed by "()", or by "(…)"
// when it has arguments; any other operand is "…".
func shapeOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return shapeOf(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + shapeOf(e.X)
	case *ast.ParenExpr:
		return "(" + shapeOf(e.X) + ")"
	case *ast.IndexExpr:
		return shapeOf(e.X) + "[" + shapeOf(e.Index) + "]"
	case *ast.IndexListExpr:
		idx := make([]string, len(e.Indices))
		for i, x := range e.Indices {
			idx[i] = shapeOf(x)
		}
		return shapeOf(e.X) + "[" + strings.Join(idx, ", ") + "]"
	case *ast.CallExpr:
		if len(e.Args) == 0 {
			return shapeOf(e.Fun) + "()"
		}
		return shapeOf(e.Fun) + "(…)"
	}
	return "…"
}

// declShape renders a func declaration's head the same way: "name()" or
// "(*T) name(…)".
func declShape(d *ast.FuncDecl) string {
	s := d.Name.Name + "()"
	if d.Type.Params.NumFields() > 0 {
		s = d.Name.Name + "(…)"
	}
	if d.Recv != nil {
		s = "(" + shapeOf(d.Recv.List[0].Type) + ") " + s
	}
	return s
}
