// Command compare sets two groups of benchmark runs side by side: for
// every workload and metric it prints each side's median and quartiles,
// how many seed-matched pairs the second side won, and a verdict
// against the bounds BENCHMARK.json fixes. It flags any seed whose
// outcome_sha256 or failure count differs between runs.
//
// Each argument is a file holding one run's standard output; the two
// sides are the two directories the files sit in, first-named first:
//
//	bash bench/run.sh compare parent/*.out change/*.out
//
// Exit status: 0 when nothing is worse and nothing is flagged, 1
// otherwise, 2 on bad input.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// run is the part of a run's report line compare reads.
type run struct {
	Workload      string `json:"workload"`
	Seed          uint64 `json:"seed"`
	Trace         int    `json:"trace"`
	Failed        int    `json:"failed"`
	Attempted     int    `json:"attempted"`
	OutcomeSHA256 string `json:"outcome_sha256"`
	Metrics       map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	KnownFailures []struct {
		Name   string `json:"name"`
		Failed int    `json:"failed"`
	} `json:"known_failures"`
}

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func main() {
	os.Exit(compareMain(os.Args[1:], os.Stdout, os.Stderr))
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "BENCHMARK.json to read bounds from (default: the nearest one above the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	a, b, err := loadSides(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	bad := report(stdout, sp, a, b)
	if bad {
		return 1
	}
	return 0
}

func loadSpec(path string) (*spec, error) {
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		for {
			p := filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return nil, errors.New("no BENCHMARK.json above the working directory; pass -spec")
			}
			dir = parent
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadSides reads every file's report line and splits the runs by
// directory into the first-named side and the second.
func loadSides(files []string) (a, b []run, err error) {
	var dirs []string
	for _, f := range files {
		r, err := readRun(f)
		if err != nil {
			return nil, nil, err
		}
		dir := filepath.Dir(f)
		k := indexOf(dirs, dir)
		if k < 0 {
			dirs = append(dirs, dir)
			k = len(dirs) - 1
		}
		switch k {
		case 0:
			a = append(a, r)
		case 1:
			b = append(b, r)
		default:
			return nil, nil, fmt.Errorf("runs come from more than two directories (%v, %s)", dirs[:2], dir)
		}
	}
	if len(dirs) != 2 {
		return nil, nil, fmt.Errorf("need runs from two directories, got %d", len(dirs))
	}
	return a, b, nil
}

func indexOf(xs []string, x string) int {
	for k, v := range xs {
		if v == x {
			return k
		}
	}
	return -1
}

func readRun(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"report":`) {
			continue
		}
		var wrap struct {
			Report run `json:"report"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			return run{}, fmt.Errorf("%s: %w", path, err)
		}
		return wrap.Report, nil
	}
	if err := sc.Err(); err != nil {
		return run{}, fmt.Errorf("%s: %w", path, err)
	}
	return run{}, fmt.Errorf("%s: no report line", path)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// row is one workload × metric comparison.
type row struct {
	a, b        []float64
	wins, pairs int
	verdict     string
}

// report prints the comparison and says whether anything is worse or
// flagged.
func report(w io.Writer, sp *spec, a, b []run) bool {
	defs := map[string]metricSpec{}
	var order []string
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		defs[m.Name] = m
		order = append(order, m.Name)
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]run{}, a...), b...) {
		workloads[r.Workload] = true
	}
	var names []string
	for wl := range workloads {
		names = append(names, wl)
	}
	sort.Strings(names)

	bad := false
	fmt.Fprintf(w, "%-12s %-44s %-30s %-30s %8s %7s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "B vs A", "B wins", "verdict")
	for _, wl := range names {
		for _, name := range order {
			r := compareMetric(wl, defs[name], a, b)
			if r == nil {
				continue
			}
			aq1, amed, aq3 := quartiles(r.a)
			bq1, bmed, bq3 := quartiles(r.b)
			fmt.Fprintf(w, "%-12s %-44s %-30s %-30s %+7.2f%% %3d/%-3d  %s\n", wl, name,
				fmt.Sprintf("%.4g [%.4g %.4g]", amed, aq1, aq3),
				fmt.Sprintf("%.4g [%.4g %.4g]", bmed, bq1, bq3),
				100*(bmed-amed)/math.Abs(amed), r.wins, r.pairs, r.verdict)
			if r.verdict == "worse" {
				bad = true
			}
		}
		if flags := integrity(wl, a, b); len(flags) > 0 {
			bad = true
			for _, f := range flags {
				fmt.Fprintf(w, "%-12s FLAG %s\n", wl, f)
			}
		}
		printKnownFailures(w, wl, a, b)
	}
	return bad
}

// compareMetric gathers one metric of one workload from both sides and
// decides the verdict. Runs pair up by seed.
func compareMetric(wl string, def metricSpec, a, b []run) *row {
	r := &row{}
	av, bv := map[uint64][]float64{}, map[uint64][]float64{}
	for _, x := range a {
		if m, ok := x.Metrics[def.Name]; ok && x.Workload == wl {
			r.a = append(r.a, m.Value)
			av[x.Seed] = append(av[x.Seed], m.Value)
		}
	}
	for _, x := range b {
		if m, ok := x.Metrics[def.Name]; ok && x.Workload == wl {
			r.b = append(r.b, m.Value)
			bv[x.Seed] = append(bv[x.Seed], m.Value)
		}
	}
	if len(r.a) == 0 || len(r.b) == 0 {
		return nil
	}
	better := func(x, y float64) bool { // x better than y
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for seed, xs := range av {
		ys := bv[seed]
		for k := 0; k < len(xs) && k < len(ys); k++ {
			r.pairs++
			if better(ys[k], xs[k]) {
				r.wins++
			}
		}
	}
	aq1, amed, aq3 := quartiles(r.a)
	_, bmed, _ := quartiles(r.b)
	spread := (aq3 - aq1) / math.Abs(amed)
	worse := (bmed - amed) / math.Abs(amed) // > 0: B is worse
	if def.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range r.a {
		for _, y := range r.b {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	switch {
	case r.pairs > 0 && 10*r.wins >= 9*r.pairs && math.Abs(bmed-amed) > aq3-aq1 && worse < 0:
		r.verdict = "better"
	case def.Bound == nil:
		r.verdict = "-"
	case spread > *def.Bound && !allBetter:
		r.verdict = fmt.Sprintf("unresolved (A spread %.1f%% > bound %.0f%%)", 100*spread, 100**def.Bound)
	case worse > *def.Bound:
		r.verdict = "worse"
	default:
		r.verdict = "within bound"
	}
	return r
}

// integrity flags seeds whose digests disagree between any two runs,
// and seeds whose failure counts differ between the sides.
func integrity(wl string, a, b []run) []string {
	digests := map[uint64]map[string]bool{}
	fails := [2]map[uint64]int{{}, {}}
	for side, runs := range [][]run{a, b} {
		for _, r := range runs {
			if r.Workload != wl {
				continue
			}
			if digests[r.Seed] == nil {
				digests[r.Seed] = map[string]bool{}
			}
			digests[r.Seed][r.OutcomeSHA256] = true
			fails[side][r.Seed] += r.Failed
		}
	}
	var seeds []uint64
	for s := range digests {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var out []string
	for _, s := range seeds {
		if len(digests[s]) > 1 {
			out = append(out, fmt.Sprintf("seed %d: outcome_sha256 differs between runs", s))
		}
		fa, inA := fails[0][s]
		fb, inB := fails[1][s]
		if inA && inB && fa != fb {
			out = append(out, fmt.Sprintf("seed %d: failed ops A=%d B=%d", s, fa, fb))
		}
	}
	return out
}

// printKnownFailures lists each side's total for every known-failure
// probe; they are recorded, not judged.
func printKnownFailures(w io.Writer, wl string, a, b []run) {
	totals := map[string][2]int{}
	for side, runs := range [][]run{a, b} {
		for _, r := range runs {
			if r.Workload != wl {
				continue
			}
			for _, kf := range r.KnownFailures {
				t := totals[kf.Name]
				t[side] += kf.Failed
				totals[kf.Name] = t
			}
		}
	}
	var names []string
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-12s known failure %s: A %d, B %d failed probes\n", wl, n, totals[n][0], totals[n][1])
	}
}
