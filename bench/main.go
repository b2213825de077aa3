// Command bench is the repository's end-to-end benchmark: four
// workloads over the figure registry and the in-process HTTP service,
// each run in its own process, with outputs checked against the serial
// reference engine.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload serve-ber --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                      # every workload, one child process each
//	bash bench/run.sh --trace 1 ...        # per-layer metrics and span files
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// full report bench/compare reads. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares a metric as BENCHMARK.json does.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics an untraced run reports for every workload.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

type metricValue struct {
	name, unit string
	value      float64
}

// options are the command-line settings of one invocation.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	out        string
	setupOnly  bool
	cpuprofile string
	// setupChildren is how many extra cold set-ups run in child
	// processes; setup_s is the median over them and the run's own.
	setupChildren int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (figures-all, serve-ber, serve-image, serve-mix; empty runs all, each in a child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.out, "out", "bench-out", "directory for span files and temporary checkpoints")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "measure one cold set-up and print setup_s (used for the set-up samples)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the timed phase to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace %d: need 0 or 1\n", o.trace)
		return 2
	}
	if !(o.seconds > 0) {
		fmt.Fprintf(stderr, "bench: -seconds %g: need > 0\n", o.seconds)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	ctx := context.Background()
	if o.setupOnly {
		e, d, err := setUp(ctx, w, o, false)
		if err != nil {
			fmt.Fprintln(stderr, "bench: set-up:", err)
			return 1
		}
		e.tearDown()
		fmt.Fprintf(stdout, "setup_s %s\n", formatValue(d.Seconds()))
		return 0
	}
	o.setupChildren = 4
	rep, err := runWorkload(ctx, w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so memory and
// GC state never carry from one workload into the next.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", formatValue(o.seconds), "-trace", strconv.Itoa(o.trace), "-out", o.out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// env is one set-up system under test plus its load driver.
type env struct {
	w      *workload
	seed   uint64
	eng    engineRef
	buf    *spanBuf // nil when untraced
	stack  *stack
	server *httptest.Server
	target target
	ckpt   string
}

// spanCapacity bounds the traced run's span buffer (32 bytes a span).
const spanCapacity = 1 << 18

// setUp builds the system under test and warms it: for a service
// workload the server plus one request per endpoint shape, for
// figures-all one cold pass over every figure. The returned duration
// is the workload's set-up time.
func setUp(ctx context.Context, w *workload, o options, traced bool) (*env, time.Duration, error) {
	start := time.Now()
	e := &env{w: w, seed: o.seed, eng: prodEngine}
	if traced {
		e.buf = newSpanBuf(spanCapacity)
		tr, err := newTracer(e.buf)
		if err != nil {
			return nil, 0, err
		}
		e.eng = tr.ref()
		// Renderers that ignore their configured engine dispatch on
		// the process default; route them through the tracer too.
		if err := setDefaultEngine(e.eng); err != nil {
			return nil, 0, err
		}
	}
	if !w.service {
		e.target = renderTarget{eng: e.eng}
		for k := range figureKeys {
			if err := expectOK(e.target.do(ctx, 0, -1-k, w.gen(o.seed, k), false)); err != nil {
				return nil, 0, fmt.Errorf("cold pass: %s: %w", figureKeys[k], err)
			}
		}
		return e, time.Since(start), nil
	}
	ckpt, err := os.MkdirTemp(o.out, "ckpt-")
	if err != nil {
		return nil, 0, err
	}
	e.ckpt = ckpt
	e.stack = newStack(e.eng, 0, ckpt)
	var h http.Handler = e.stack
	if traced {
		h = traceHandler(e.buf, e.stack)
	}
	e.server = httptest.NewServer(h)
	e.target = newHTTPTarget(e.server.URL)
	for k, req := range w.warmups(o.seed) {
		if err := expectOK(e.target.do(ctx, 0, -1-k, req, false)); err != nil {
			e.tearDown()
			return nil, 0, fmt.Errorf("warm-up %s %s: %w", req.path, req.body, err)
		}
	}
	return e, time.Since(start), nil
}

func expectOK(status int, body []byte, _ int, err error) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, body)
	}
	return nil
}

func (e *env) tearDown() {
	if e.buf != nil {
		if err := setDefaultEngine(prodEngine); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	if t, ok := e.target.(*httpTarget); ok {
		t.close()
	}
	if e.server != nil {
		e.server.Close()
	}
	if e.stack != nil {
		e.stack.drain()
	}
	if e.ckpt != "" {
		if err := os.RemoveAll(e.ckpt); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
}

// childSetups measures n cold set-ups, each in a fresh child process.
func childSetups(ctx context.Context, w *workload, o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for k := 0; k < n; k++ {
		cctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		cmd := exec.CommandContext(cctx, exe, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10), "-out", o.out, "-setup-only")
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		err := cmd.Run()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up child %d: %w", k, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(stdout.String(), "setup_s")), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child %d printed %q", k, stdout.String())
		}
		out = append(out, v)
	}
	return out, nil
}

// report is everything one run measured.
type report struct {
	Workload       string                `json:"workload"`
	Seed           uint64                `json:"seed"`
	Trace          int                   `json:"trace"`
	Seconds        float64               `json:"seconds"`
	Clients        int                   `json:"clients"`
	Correct        bool                  `json:"correct"`
	Attempted      int                   `json:"attempted"`
	Failed         int                   `json:"failed"`
	ErrorRate      float64               `json:"error_rate"`
	FailedOps      []string              `json:"failed_ops"`
	Mismatched     []int                 `json:"mismatched_ops"`
	Checked        int                   `json:"checked_ops"`
	OutcomeSHA256  string                `json:"outcome_sha256"`
	LatencySamples int                   `json:"latency_samples"`
	P99Beyond      int                   `json:"latency_p99_beyond"`
	Rounds         []float64             `json:"round_throughputs"`
	SetupSamples   []float64             `json:"setup_samples_s"`
	KnownFailures  []knownFailure        `json:"known_failures,omitempty"`
	SpansDropped   int64                 `json:"spans_dropped,omitempty"`
	TraceFile      string                `json:"trace_file,omitempty"`
	Metrics        map[string]metricJSON `json:"metrics"`
	metrics        []metricValue
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload end to end: set-up samples, the timed
// closed loop, the output check and digest, then either the
// end-to-end metrics or (traced) the per-layer ones.
func runWorkload(ctx context.Context, w *workload, o options, logw io.Writer) (*report, error) {
	traced := o.trace == 1
	setups, err := childSetups(ctx, w, o, o.setupChildren)
	if err != nil {
		return nil, err
	}
	e, setupDur, err := setUp(ctx, w, o, traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.tearDown()
	setups = append(setups, setupDur.Seconds())

	d := time.Duration(o.seconds * float64(time.Second))
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	var prof *os.File
	if o.cpuprofile != "" {
		if prof, err = os.Create(o.cpuprofile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}
	start := time.Now()
	var tr *tracedPhase
	if traced {
		tr = startTracedPhase(ctx, e, start, d)
	}
	ops := runPhase(ctx, w, o.seed, e.target, start, d)
	if tr != nil {
		tr.stop()
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("no op completed in %v", d)
	}

	rep := &report{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Clients: clients,
		Attempted: len(ops), SetupSamples: setups, Metrics: map[string]metricJSON{},
	}
	// The reference is built after the timed phase, so its memory never
	// shows in max_rss_mb.
	want, closeOracle, err := e.oracle(ctx)
	if err != nil {
		return nil, err
	}
	defer closeOracle()
	mismatched, err := verify(ctx, ops, want)
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	rep.Mismatched = mismatched
	rep.Checked, rep.Failed, rep.FailedOps = tally(ops, mismatched)
	rep.ErrorRate = float64(rep.Failed) / float64(rep.Attempted)
	rep.Correct = rep.Failed == 0
	if rep.OutcomeSHA256, err = outcomeDigest(ctx, w, ops, e.measured); err != nil {
		return nil, err
	}
	if w.knownFailure != nil {
		kf, err := w.knownFailure(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("known-failure probe: %w", err)
		}
		rep.KnownFailures = []knownFailure{kf}
	}

	lat := latencies(ops)
	rep.LatencySamples = len(lat)
	rep.P99Beyond = beyond(lat, 99)
	rep.Rounds = rounds(ops, w.period, 5)
	if traced {
		ms, err := tr.perLayer(ctx, o, ops)
		if err != nil {
			return nil, err
		}
		rep.metrics = ms
		rep.SpansDropped = e.buf.dropped.Load()
		rep.TraceFile = filepath.Join(o.out, "trace-"+w.name+".json")
		if err := writeTrace(rep.TraceFile, w.name, o.seed, e.buf, ops, int64(start.Sub(e.buf.epoch)), ms); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		n := float64(len(ops))
		cpu := time.Duration(ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano())
		values := map[string]float64{
			"throughput_ops_s": median(rep.Rounds),
			"latency_p50_ms":   percentile(lat, 50),
			"latency_p99_ms":   percentile(lat, 99),
			"cpu_ms_per_op":    float64(cpu) / float64(time.Millisecond) / n,
			"alloc_kb_per_op":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / n,
			"max_rss_mb":       float64(ru1.Maxrss) / 1024,
			"setup_s":          median(setups),
		}
		for _, def := range endToEnd {
			rep.metrics = append(rep.metrics, metricValue{def.name, def.unit, values[def.name]})
		}
	}
	for _, m := range rep.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(logw, "bench: %s is %v; reported as 0\n", m.name, v)
			v = 0
		}
		rep.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	return rep, nil
}

// tally counts the checked ops and the failed ones: an op fails on a
// transport error, a non-2xx status or a body that differs from the
// reference. It describes the first 20 failures.
func tally(ops []opResult, mismatched []int) (checked, failed int, failures []string) {
	bad := map[int]bool{}
	for _, i := range mismatched {
		bad[i] = true
	}
	for _, op := range ops {
		if op.kept {
			checked++
		}
		if !op.failed() && !bad[op.index] {
			continue
		}
		failed++
		if len(failures) < 20 {
			if op.failed() {
				failures = append(failures, describeFailure(op))
			} else {
				failures = append(failures, fmt.Sprintf("op %d: body differs from the serial reference", op.index))
			}
		}
	}
	return checked, failed, failures
}

// oracle returns how the reference system answers op i: the serial,
// uncached service for service workloads, the serial renders made here
// for figures-all.
func (e *env) oracle(ctx context.Context) (oracle, func(), error) {
	if !e.w.service {
		refs := make([][]byte, len(figureKeys))
		for k, key := range figureKeys {
			out, err := renderFigure(ctx, key, oracleEngine)
			if err != nil {
				return nil, nil, fmt.Errorf("serial reference: %w", err)
			}
			refs[k] = out
		}
		return func(_ context.Context, _, i int) (outcome, error) {
			return outcome{status: http.StatusOK, body: refs[i%len(refs)]}, nil
		}, func() {}, nil
	}
	st := newStack(oracleEngine, -1, "")
	srv := httptest.NewServer(st)
	t := newHTTPTarget(srv.URL)
	want := func(ctx context.Context, c, i int) (outcome, error) {
		status, body, _, err := t.do(ctx, c, i, e.w.gen(e.seed, i), true)
		return outcome{status: status, body: body}, err
	}
	return want, func() { t.close(); srv.Close(); st.drain() }, nil
}

// measured answers op i from the system under test, outside the timed
// phase.
func (e *env) measured(ctx context.Context, c, i int) (outcome, error) {
	status, body, _, err := e.target.do(ctx, c, i, e.w.gen(e.seed, i), true)
	return outcome{status: status, body: body}, err
}

// formatValue prints a metric with every digit it has.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// print writes the human-readable lines, the report line and, last, the
// result line.
func (r *report) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "bench: workload=%s seed=%d trace=%d seconds=%s clients=%d ops=%d\n",
		r.Workload, r.Seed, r.Trace, formatValue(r.Seconds), r.Clients, r.Attempted)
	for _, m := range r.metrics {
		note := ""
		switch m.name {
		case "throughput_ops_s":
			note = fmt.Sprintf("median of %d rounds %v", len(r.Rounds), roundList(r.Rounds))
		case "latency_p50_ms":
			note = fmt.Sprintf("n=%d", r.LatencySamples)
		case "latency_p99_ms":
			note = fmt.Sprintf("n=%d, %d beyond", r.LatencySamples, r.P99Beyond)
		case "setup_s":
			note = fmt.Sprintf("median of %d cold set-ups %v", len(r.SetupSamples), roundList(r.SetupSamples))
		}
		fmt.Fprintf(bw, "  %-46s %14.6g %-6s %s\n", m.name, m.value, m.unit, note)
	}
	fmt.Fprintf(bw, "  %-46s %14.6g %-6s %d/%d failed\n", "error_rate", r.ErrorRate, "", r.Failed, r.Attempted)
	fmt.Fprintf(bw, "  check: %d ops compared byte for byte with the serial reference, %d mismatched\n", r.Checked, len(r.Mismatched))
	for _, f := range r.FailedOps {
		fmt.Fprintf(bw, "  failed %s\n", f)
	}
	for _, kf := range r.KnownFailures {
		fmt.Fprintf(bw, "  known failure %s: %d/%d probes failed %v %s\n", kf.Name, kf.Failed, kf.Attempted, kf.Indices, kf.Error)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(bw, "  spans: %s (%d dropped)\n", r.TraceFile, r.SpansDropped)
	}
	fmt.Fprintf(bw, "  outcome_sha256 %s\n", r.OutcomeSHA256)
	line, err := json.Marshal(struct {
		Report *report `json:"report"`
	}{r})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	line, err = json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

func roundList(xs []float64) string {
	parts := make([]string, len(xs))
	for k, x := range xs {
		parts[k] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
