package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(data, n=4) for each data set.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
	} {
		q1, med, q3 := quartiles(c.xs)
		for k, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[k]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
				break
			}
		}
	}
}

// runsOf builds one side's runs of serve-ber throughput, seeds 1..n.
func runsOf(values []float64, digest string) []run {
	var out []run
	for k, v := range values {
		r := run{Workload: "serve-ber", Seed: uint64(k + 1), OutcomeSHA256: digest}
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{"throughput_ops_s": {Value: v, Unit: "ops/s"}}
		out = append(out, r)
	}
	return out
}

func TestVerdicts(t *testing.T) {
	bound := 0.1
	def := metricSpec{Name: "throughput_ops_s", Better: "higher", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for k, v := range base {
			out[k] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", base, scaled(1.01), "within bound"},
		{"better", base, scaled(1.2), "better"},
		{"worse", base, scaled(0.8), "worse"},
		{"noisy parent", []float64{60, 140, 70, 130, 100, 80, 120, 90, 110, 100}, scaled(0.95), "unresolved"},
	} {
		r := compareMetric("serve-ber", def, runsOf(c.a, "x"), runsOf(c.b, "x"))
		if !strings.HasPrefix(r.verdict, c.want) {
			t.Errorf("%s: verdict %q, want %q", c.name, r.verdict, c.want)
		}
		if r.pairs != len(c.a) {
			t.Errorf("%s: %d pairs, want %d", c.name, r.pairs, len(c.a))
		}
	}
}

func TestDigestDisagreementIsFlagged(t *testing.T) {
	a, b := runsOf([]float64{1, 2}, "aaa"), runsOf([]float64{1, 2}, "aaa")
	if flags := integrity("serve-ber", a, b); len(flags) != 0 {
		t.Fatalf("agreeing runs flagged: %v", flags)
	}
	b[1].OutcomeSHA256 = "bbb"
	b[0].Failed = 3
	if flags := integrity("serve-ber", a, b); len(flags) != 2 {
		t.Errorf("flags = %v, want one digest and one failure-count flag", flags)
	}
}

func TestCompareReadsRunOutputs(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"throughput_ops_s","unit":"ops/s","better":"higher","bound":0.1}],"per_layer":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, side := range []string{"A", "B"} {
		if err := os.Mkdir(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		f := filepath.Join(dir, side, "serve-ber-1.out")
		out := "bench: workload=serve-ber\n" +
			`{"report":{"workload":"serve-ber","seed":1,"failed":0,"outcome_sha256":"d","metrics":{"throughput_ops_s":{"value":100,"unit":"ops/s"}}}}` + "\n" +
			`{"correct":true,"attempted":1,"failed":0,"metrics":{}}` + "\n"
		if err := os.WriteFile(f, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	var stdout, stderr bytes.Buffer
	if code := compareMain(append([]string{"-spec", spec}, files...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "within bound") {
		t.Errorf("output:\n%s", stdout.String())
	}
	if code := compareMain([]string{"-spec", spec, files[0]}, &stdout, &stderr); code != 2 {
		t.Errorf("one directory: exit %d, want 2", code)
	}
}
