package main

import (
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchSpec is BENCHMARK.json as the tests read it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		same, differ := true, false
		for i := 0; i < 300; i++ {
			a, b, c := w.gen(7, i), w.gen(7, i), w.gen(8, i)
			same = same && a == b
			differ = differ || a != c
		}
		if !same {
			t.Errorf("%s: same seed gave different inputs", w.name)
		}
		// figures-all renders the fixed registry: its inputs are the
		// same under every seed by design.
		if w.service && !differ {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.name)
		}
	}
}

func TestServiceSeedsAreUniqueWhereTheCacheMustMiss(t *testing.T) {
	for _, w := range []*workload{serveBER, serveImage} {
		seen := map[request]int{}
		for i := 0; i < 5000; i++ {
			r := w.gen(3, i)
			if j, dup := seen[r]; dup {
				t.Fatalf("%s: ops %d and %d send the same request %s", w.name, j, i, r.body)
			}
			seen[r] = i
		}
	}
}

func TestServeMixHitRatio(t *testing.T) {
	// A serial replay of the request stream through a FIFO cache of the
	// service's default 256 entries.
	for seed := uint64(1); seed <= 3; seed++ {
		cached := map[request]bool{}
		var order []request
		hits, n := 0, 8000
		for i := 0; i < n; i++ {
			r := serveMix.gen(seed, i)
			if cached[r] {
				hits++
				continue
			}
			if len(order) == 256 {
				delete(cached, order[0])
				order = order[1:]
			}
			cached[r] = true
			order = append(order, r)
		}
		ratio := float64(hits) / float64(n)
		if ratio < 0.4 || ratio > 0.6 {
			t.Errorf("seed %d: hit ratio %.3f outside [0.4, 0.6]", seed, ratio)
		}
	}
}

func TestBlocksHoldTheDeclaredMix(t *testing.T) {
	counts := map[string]int{}
	for i := 0; i < imageBlock; i++ {
		r := serveImage.gen(5, i)
		var f reqFields
		if err := json.Unmarshal([]byte(r.body), &f); err != nil {
			t.Fatal(err)
		}
		counts[r.path]++
		if strings.Contains(r.body, `"format":"pgm"`) {
			counts["pgm"]++
		}
		if f.StreamLen == 4096 {
			counts["4096"]++
			if f.Source.Width != 64 {
				t.Errorf("op %d: 4096-bit stream on a %dx%d source", i, f.Source.Width, f.Source.Height)
			}
		}
		if r.path == "/v1/image/gamma" && f.Source.Synth == "checkerboard" {
			t.Errorf("op %d: gamma on a checkerboard is the probed known failure, not part of the mix", i)
		}
	}
	if counts["/v1/image/edge"] != 36 || counts["/v1/image/gamma"] != 36 || counts["pgm"] != imageBlock/4 || counts["4096"] != 12 {
		t.Errorf("serve-image pass mix = %v", counts)
	}
	classes := map[string]int{}
	for i := 0; i < mixBlock; i++ {
		classes[strings.Split(serveMix.gen(5, i).path, "/")[2]]++
	}
	if classes["figures"] != 6 || classes["ber"] != 5 || classes["yield"] != 5 || classes["image"] != 4 {
		t.Errorf("serve-mix pass mix = %v", classes)
	}
}

func TestSpecDeclaresTheBenchmark(t *testing.T) {
	s := loadBenchSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for k, w := range workloads {
		if s.Workloads[k].Name != w.name || s.Workloads[k].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %s %q", k, s.Workloads[k], w.name, w.why)
		}
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(declared), len(defs))
			return
		}
		for k, d := range defs {
			m := declared[k]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, k, m, d)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayerDefs())
	if strings.Join(s.Paths, ",") != "bench" || len(s.Command) != 2 || s.Command[1] != "bench/run.sh" {
		t.Errorf("paths %v, command %v", s.Paths, s.Command)
	}
	// A full evaluation makes 4 + 22 runs per workload; each adds about
	// 12 s of set-up samples, output check and probes to run_seconds.
	if total := (4 + 22*len(workloads)) * (s.RunSeconds + 12); s.RunSeconds < 1 || total > 3300 {
		t.Errorf("run_seconds %d: a full evaluation would take about %d s", s.RunSeconds, total)
	}
}

// smoke runs a workload at 1% of its length (0.2 s of load, no set-up
// children) and returns its report.
func smoke(t *testing.T, w *workload, trace int) *report {
	t.Helper()
	o := options{workload: w.name, seed: 1, seconds: 0.2, trace: trace, out: t.TempDir()}
	rep, err := runWorkload(context.Background(), w, o, os.Stderr)
	if err != nil {
		t.Fatalf("%s trace=%d: %v", w.name, trace, err)
	}
	return rep
}

func TestSmokeEveryWorkloadEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	s := loadBenchSpec(t)
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range workloads {
		for trace, want := range [][]string{names(s.EndToEnd), names(s.PerLayer)} {
			rep := smoke(t, w, trace)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d %v", w.name, trace, rep.Correct, rep.Failed, rep.Attempted, rep.FailedOps)
			}
			var got []string
			for name, m := range rep.Metrics {
				got = append(got, name)
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%d emitted %v\nBENCHMARK.json declares %v", w.name, trace, got, want)
			}
			if trace == 1 {
				if _, err := os.Stat(rep.TraceFile); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
}

func TestDigestRepeatsForOneSeed(t *testing.T) {
	a, b := smoke(t, serveImage, 0), smoke(t, serveImage, 0)
	if a.OutcomeSHA256 == "" || a.OutcomeSHA256 != b.OutcomeSHA256 {
		t.Errorf("outcome_sha256 %q then %q", a.OutcomeSHA256, b.OutcomeSHA256)
	}
	if len(a.KnownFailures) != 1 || a.KnownFailures[0].Failed != b.KnownFailures[0].Failed {
		t.Errorf("known failures %+v then %+v", a.KnownFailures, b.KnownFailures)
	}
}

func TestTamperedBodyCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	o := options{workload: serveBER.name, seed: 1, seconds: 0.2, out: t.TempDir()}
	e, _, err := setUp(ctx, serveBER, o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.tearDown()
	want, closeOracle, err := e.oracle(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOracle()
	ops := runPhase(ctx, serveBER, o.seed, e.target, time.Now(), 200*time.Millisecond)
	if bad, err := verify(ctx, ops, want); err != nil || len(bad) != 0 {
		t.Fatalf("untouched run: mismatched %v, %v", bad, err)
	}
	if !ops[0].kept || len(ops[0].body) == 0 {
		t.Fatal("op 0 kept no body")
	}
	ops[0].body[len(ops[0].body)/2] ^= 1
	bad, err := verify(ctx, ops, want)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed, _ := tally(ops, bad); failed != 1 || len(bad) != 1 || bad[0] != 0 {
		t.Errorf("one tampered byte: mismatched %v, failed %d; want op 0 and 1 failure", bad, failed)
	}
}

func TestRoundsAlignToPasses(t *testing.T) {
	var ops []opResult
	for i := 0; i < 100; i++ {
		ops = append(ops, opResult{index: i, end: time.Duration(i+1) * time.Millisecond})
	}
	r := rounds(ops, 4, 5)
	if len(r) != 5 {
		t.Fatalf("rounds = %v", r)
	}
	for _, x := range r {
		if x < 999 || x > 1001 { // one op per ms
			t.Errorf("round throughput %v, want 1000 ops/s", x)
		}
	}
}

// TestOnlyLayersImportsTheSystem pins the single seam: renaming a layer
// entry point touches layers.go alone.
func TestOnlyLayersImportsTheSystem(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "layers.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "repro/") {
				t.Errorf("%s imports %s; only layers.go may", f, p)
			}
		}
	}
}

// TestCleanUnderRepoGates runs gofmt, vet and the repository's osclint
// suite over the benchmark, and rejects suppression comments in it.
func TestCleanUnderRepoGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	gofmt := filepath.Join(filepath.Dir(goTool), "gofmt")
	if out, err := exec.Command(gofmt, "-l", ".").CombinedOutput(); err != nil || len(out) > 0 {
		t.Errorf("gofmt -l: %s %v", out, err)
	}
	if out, err := exec.Command(goTool, "vet", "./...").CombinedOutput(); err != nil {
		t.Errorf("go vet: %s %v", out, err)
	}
	cmd := exec.Command(goTool, "run", "./cmd/osclint", "./bench/...")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("osclint: %s %v", out, err)
	}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(data), "osclint:"+"ignore") {
			t.Errorf("%s suppresses an osclint finding", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
