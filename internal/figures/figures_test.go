package figures

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func TestSortedKeysSortedAndComplete(t *testing.T) {
	keys := SortedKeys()
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("SortedKeys() = %v, want sorted", keys)
	}
	if len(keys) != len(Keys()) {
		t.Fatalf("SortedKeys has %d keys, Keys has %d", len(keys), len(Keys()))
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range Keys() {
		seen[k] = true
	}
	for _, k := range keys {
		if !seen[k] {
			t.Errorf("SortedKeys key %q missing from Keys", k)
		}
	}
}

func TestGetRoundTrip(t *testing.T) {
	for _, k := range Keys() {
		f, ok := Get(k)
		if !ok {
			t.Errorf("Get(%q) not found", k)
			continue
		}
		if f.Key != k {
			t.Errorf("Get(%q).Key = %q", k, f.Key)
		}
		if f.Title == "" || f.Render == nil {
			t.Errorf("figure %q incomplete: %+v", k, f)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get of unknown key succeeded")
	}
	if len(All()) != len(Keys()) {
		t.Errorf("All() has %d figures, Keys() %d", len(All()), len(Keys()))
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		wantE string
	}{
		{"defaults ok", func(*Config) {}, ""},
		{"grid too small", func(c *Config) { c.GridN = 1 }, "-grid"},
		{"sweep too small", func(c *Config) { c.SweepN = 1 }, "-sweep"},
		{"samples zero", func(c *Config) { c.Samples = 0 }, "-samples"},
		{"one shard of one ok", func(c *Config) { c.ShardK, c.ShardN = 0, 1 }, ""},
		{"last shard ok", func(c *Config) { c.ShardK, c.ShardN = 2, 3 }, ""},
		{"shard index == count", func(c *Config) { c.ShardK, c.ShardN = 3, 3 }, "-shard"},
		{"negative shard index", func(c *Config) { c.ShardK, c.ShardN = -1, 2 }, "-shard"},
		{"shard index without count", func(c *Config) { c.ShardK = 1 }, "-shard"},
		{"negative shard count", func(c *Config) { c.ShardN = -2 }, "-shard"},
	}
	for _, tc := range cases {
		cfg := Defaults()
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.wantE == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantE) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantE)
		}
	}
}

// TestRenderEngineHonored: a figure render dispatches on the Config's
// engine, not the process default, so services can pin their own.
func TestRenderEngineHonored(t *testing.T) {
	f, ok := Get("5a")
	if !ok {
		t.Fatal("figure 5a not registered")
	}
	cfg := Defaults()
	cfg.Engine = engine.Serial
	var a bytes.Buffer
	if err := f.Render(context.Background(), &a, cfg); err != nil {
		t.Fatalf("render on Serial: %v", err)
	}
	cfg.Engine = engine.WordParallel
	var b bytes.Buffer
	if err := f.Render(context.Background(), &b, cfg); err != nil {
		t.Fatalf("render on WordParallel: %v", err)
	}
	if a.String() != b.String() {
		t.Error("5a output differs across engines (determinism contract broken)")
	}
	if a.Len() == 0 {
		t.Error("5a rendered empty output")
	}
}

// TestRenderNoNestedDispatch renders every figure on a one-slot
// Limited engine and requires the bytes of an engine.Serial render. A
// renderer that dispatched a nested fan-out on its configured engine
// would wait forever for the slot its own item holds; the deadline
// turns that hang into a failure.
func TestRenderNoNestedDispatch(t *testing.T) {
	one := engine.NewLimited("one", engine.WordParallel, 1)
	for _, f := range All() {
		render := func(e engine.Engine) string {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cfg := Defaults()
			cfg.Engine = e
			var out bytes.Buffer
			if err := f.Render(ctx, &out, cfg); err != nil {
				t.Fatalf("%s on %s: %v", f.Key, e.Name(), err)
			}
			return out.String()
		}
		if got, want := render(one), render(engine.Serial); got != want {
			t.Errorf("%s: one-slot render differs from the serial render:\n%s\nwant:\n%s", f.Key, got, want)
		}
	}
}
