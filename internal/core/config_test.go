package core

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

// transcodeSpec builds the canonical two-level x264-like spec used across
// the core tests: an outer PAR loop over videos nesting a choice between a
// 3-stage pipeline and a fused sequential alternative.
func transcodeSpec() *NestSpec {
	inner := &NestSpec{Name: "video", Alts: []*AltSpec{
		leafAlt("pipeline",
			StageSpec{Name: "read", Type: SEQ},
			StageSpec{Name: "transform", Type: PAR, MinDoP: 2, MaxDoP: 16},
			StageSpec{Name: "write", Type: SEQ}),
		leafAlt("fused", StageSpec{Name: "all", Type: SEQ}),
	}}
	return &NestSpec{Name: "app", Alts: []*AltSpec{
		leafAlt("outer", StageSpec{Name: "transcode", Type: PAR, Nest: inner}),
	}}
}

func TestDefaultConfig(t *testing.T) {
	spec := transcodeSpec()
	cfg := DefaultConfig(spec)
	if cfg.Alt != 0 || len(cfg.Extents) != 1 || cfg.Extents[0] != 1 {
		t.Fatalf("root default = %v", cfg)
	}
	child := cfg.Child("video")
	if child == nil {
		t.Fatal("missing child config")
	}
	if len(child.Extents) != 3 || child.Extents[0] != 1 || child.Extents[1] != 1 {
		t.Fatalf("child default = %v", child)
	}
}

func TestCloneIsDeep(t *testing.T) {
	spec := transcodeSpec()
	cfg := DefaultConfig(spec)
	cp := cfg.Clone()
	cp.Extents[0] = 99
	cp.Child("video").Extents[1] = 42
	if cfg.Extents[0] == 99 || cfg.Child("video").Extents[1] == 42 {
		t.Fatal("clone aliases original")
	}
	if (*Config)(nil).Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}

func TestEqual(t *testing.T) {
	spec := transcodeSpec()
	a := DefaultConfig(spec)
	b := DefaultConfig(spec)
	if !a.Equal(b) {
		t.Fatal("identical configs unequal")
	}
	b.Child("video").Extents[1] = 4
	if a.Equal(b) {
		t.Fatal("differing configs equal")
	}
	b2 := DefaultConfig(spec)
	b2.Alt = 0
	b2.Extents[0] = 3
	if a.Equal(b2) {
		t.Fatal("differing root extents equal")
	}
	if a.Equal(nil) || !(*Config)(nil).Equal(nil) {
		t.Fatal("nil handling wrong")
	}
}

func TestNormalize(t *testing.T) {
	spec := transcodeSpec()
	cfg := &Config{Alt: 7, Extents: []int{0}}
	cfg.Normalize(spec)
	if cfg.Alt != 0 {
		t.Fatalf("alt = %d", cfg.Alt)
	}
	if cfg.Extents[0] != 1 {
		t.Fatalf("extent = %d", cfg.Extents[0])
	}
	child := cfg.Child("video")
	if child == nil {
		t.Fatal("normalize should materialize children")
	}
	// SEQ stages clamp to 1, PAR clamps to MaxDoP.
	child.Extents = []int{9, 100, 9}
	child.Alt = 0
	cfg.Normalize(spec)
	child = cfg.Child("video")
	if child.Extents[0] != 1 || child.Extents[1] != 16 || child.Extents[2] != 1 {
		t.Fatalf("child extents = %v", child.Extents)
	}
}

func TestNormalizeResizesExtents(t *testing.T) {
	spec := transcodeSpec()
	cfg := &Config{Alt: 0, Extents: nil}
	cfg.SetChild("video", &Config{Alt: 0, Extents: []int{1}})
	cfg.Normalize(spec)
	if len(cfg.Extents) != 1 {
		t.Fatalf("root extents = %v", cfg.Extents)
	}
	if got := len(cfg.Child("video").Extents); got != 3 {
		t.Fatalf("child extents length = %d", got)
	}
}

func TestDemand(t *testing.T) {
	spec := transcodeSpec()

	// <(24, DOALL), (1, SEQ-fused)> occupies 24 contexts.
	cfg := &Config{Alt: 0, Extents: []int{24}}
	cfg.SetChild("video", &Config{Alt: 1, Extents: []int{1}})
	if got := Demand(spec, cfg); got != 24 {
		t.Fatalf("demand = %d, want 24", got)
	}

	// <(3, DOALL), (8, PIPE)> with pipeline extents 1+6+1 occupies 24.
	cfg2 := &Config{Alt: 0, Extents: []int{3}}
	cfg2.SetChild("video", &Config{Alt: 0, Extents: []int{1, 6, 1}})
	if got := Demand(spec, cfg2); got != 24 {
		t.Fatalf("demand = %d, want 24", got)
	}

	// Nil config uses defaults: 1 outer × (1+1+1) pipeline = 3.
	if got := Demand(spec, nil); got != 3 {
		t.Fatalf("default demand = %d, want 3", got)
	}
}

func TestConfigString(t *testing.T) {
	spec := transcodeSpec()
	cfg := DefaultConfig(spec)
	s := cfg.String()
	if !strings.Contains(s, "video:") || !strings.Contains(s, "extents=") {
		t.Fatalf("string = %q", s)
	}
	if (*Config)(nil).String() != "<nil>" {
		t.Fatal("nil string wrong")
	}
}

func TestExtentOutOfRange(t *testing.T) {
	cfg := &Config{Extents: []int{5}}
	if cfg.Extent(0) != 5 || cfg.Extent(1) != 1 || cfg.Extent(-1) != 1 {
		t.Fatal("Extent bounds handling wrong")
	}
	if (*Config)(nil).Extent(0) != 1 {
		t.Fatal("nil config extent should be 1")
	}
	if (*Config)(nil).Child("x") != nil {
		t.Fatal("nil config child should be nil")
	}
}

// Property: Normalize is idempotent and Clone preserves equality.
func TestNormalizeIdempotentProperty(t *testing.T) {
	spec := transcodeSpec()
	f := func(alt int8, e0, e1, e2, outer int8) bool {
		cfg := &Config{Alt: int(alt), Extents: []int{int(outer)}}
		cfg.SetChild("video", &Config{Alt: int(alt) % 2, Extents: []int{int(e0), int(e1), int(e2)}})
		cfg.Normalize(spec)
		once := cfg.Clone()
		cfg.Normalize(spec)
		return cfg.Equal(once) && once.Equal(once.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after Normalize, Demand is at least 1 and every extent respects
// stage bounds.
func TestNormalizedDemandProperty(t *testing.T) {
	spec := transcodeSpec()
	f := func(alt int8, outer uint8, inner uint8) bool {
		cfg := &Config{Alt: int(alt), Extents: []int{int(outer)}}
		cfg.SetChild("video", &Config{Alt: int(alt) % 2, Extents: []int{1, int(inner), 1}})
		cfg.Normalize(spec)
		d := Demand(spec, cfg)
		if d < 1 {
			return false
		}
		child := cfg.Child("video")
		if child.Alt == 0 && (child.Extents[1] < 1 || child.Extents[1] > 16) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParseConfig: the admin endpoint's decoder never panics, and whatever
// it accepts normalizes against the two-level spec into a configuration the
// executive can instantiate: one extent per stage of the chosen alternative,
// every extent at least 1, SEQ stages at exactly 1, and a child config for
// every nested stage.
func FuzzParseConfig(f *testing.F) {
	spec := transcodeSpec()
	seed := DefaultConfig(spec)
	wide := seed.Clone()
	wide.Extents[0] = 4
	wide.Child("video").Extents = []int{1, 8, 1}
	fused := seed.Clone()
	fused.Child("video").Alt = 1
	for _, c := range []*Config{seed, wide, fused} {
		data, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add([]byte(c.String()))
	}
	f.Add([]byte(`{"alt":-3,"extents":[-1,0,99],"children":{"video":null,"other":{"alt":7}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		cfg.Normalize(spec)
		checkNormalized(t, spec, cfg)
	})
}

func checkNormalized(t *testing.T, spec *NestSpec, cfg *Config) {
	t.Helper()
	if cfg.Alt < 0 || cfg.Alt >= len(spec.Alts) {
		t.Fatalf("%s: alt %d out of range", spec.Name, cfg.Alt)
	}
	stages := spec.Alts[cfg.Alt].Stages
	if len(cfg.Extents) != len(stages) {
		t.Fatalf("%s: %d extents for %d stages", spec.Name, len(cfg.Extents), len(stages))
	}
	for i, st := range stages {
		e := cfg.Extents[i]
		if e < 1 || (st.Type == SEQ && e != 1) || (st.MaxDoP > 0 && e > st.MaxDoP) {
			t.Fatalf("%s/%s: extent %d after Normalize", spec.Name, st.Name, e)
		}
		if st.Nest != nil {
			child := cfg.Child(st.Nest.Name)
			if child == nil {
				t.Fatalf("%s/%s: no child config after Normalize", spec.Name, st.Name)
			}
			checkNormalized(t, st.Nest, child)
		}
	}
}
