package replay

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dope/internal/core"
	"dope/internal/platform"
)

// fixtureReport builds a fully populated two-level report: an outer server
// nest whose PAR stage delegates to an inner nest, every StageReport field
// nonzero, a tenant, rejections, features and a nested configuration. The
// same values produced testdata/entry_v1.jsonl with the previous encoder.
func fixtureReport() *core.Report {
	inner := &core.NestSpec{Name: "inner", Alts: []*core.AltSpec{
		{Name: "doall", Stages: []core.StageSpec{{Name: "chunk", Type: core.PAR, MinDoP: 2, MaxDoP: 12}}},
		{Name: "seq", Stages: []core.StageSpec{{Name: "whole", Type: core.SEQ}}},
	}}
	outer := &core.NestSpec{Name: "server", Alts: []*core.AltSpec{{
		Name: "pipeline",
		Stages: []core.StageSpec{
			{Name: "accept", Type: core.SEQ},
			{Name: "serve", Type: core.PAR, MinDoP: 1, MaxDoP: 6, Nest: inner},
		},
	}}}
	features := platform.NewFeatures()
	features.Register(platform.FeatureHardwareContexts, func() float64 { return 24 })
	features.Register("SystemPower", func() float64 { return 512.5 })
	return &core.Report{
		Tenant:          "video",
		Time:            2750 * time.Millisecond,
		Contexts:        24,
		BusyContexts:    19,
		BlockedAcquires: 3,
		Features:        features,
		Rejected:        41,
		Config: &core.Config{Alt: 0, Extents: []int{1, 4},
			Children: map[string]*core.Config{"inner": {Alt: 0, Extents: []int{5}}}},
		Root: &core.NestReport{
			Name: "server", Path: "server", Spec: outer, AltIndex: 0, AltName: "pipeline",
			Stages: []core.StageReport{
				{
					Name: "accept", Type: core.SEQ, MinDoP: 1, MaxDoP: 1, Extent: 1,
					ExecTime: 0.0011, MeanExecTime: 0.0012, Rate: 310.5, Load: 7.25,
					LoadInstances: 1, Iterations: 901, Completed: 1, Workers: 1,
					Spawned: 2, Retired: 1, Resizes: 1, Failures: 3, ConsecutiveFailures: 1,
					Stalls: 2, StallsDuringDrain: 1, Zombies: 1, Shed: 4,
					QueueSojourn: 0.0031, Observed: true,
				},
				{
					Name: "serve", Type: core.PAR, MinDoP: 1, MaxDoP: 6, HasNest: true, Extent: 4,
					ExecTime: 0.021, MeanExecTime: 0.019, Rate: 190.25, Load: 12.5,
					LoadInstances: 4, Iterations: 880, Completed: 4, Workers: 5,
					Spawned: 9, Retired: 5, Resizes: 6, Failures: 11, ConsecutiveFailures: 2,
					Stalls: 7, StallsDuringDrain: 3, Zombies: 2, Shed: 13,
					QueueSojourn: 0.0125, Observed: true,
				},
			},
			Children: map[string]*core.NestReport{
				"inner": {
					Name: "inner", Path: "server/inner", Spec: inner, AltIndex: 0, AltName: "doall",
					Stages: []core.StageReport{{
						Name: "chunk", Type: core.PAR, MinDoP: 2, MaxDoP: 12, Extent: 5,
						ExecTime: 0.0042, MeanExecTime: 0.0045, Rate: 1520.75, Load: 3.5,
						LoadInstances: 2, Iterations: 14080, Completed: 880, Workers: 6,
						Spawned: 21, Retired: 15, Resizes: 8, Failures: 17, ConsecutiveFailures: 4,
						Stalls: 5, StallsDuringDrain: 2, Zombies: 3, Shed: 19,
						QueueSojourn: 0.0007, Observed: true,
					}},
				},
			},
		},
	}
}

var (
	taskType = reflect.TypeOf(core.TaskType(0))
	duration = reflect.TypeOf(time.Duration(0))
)

// fill sets every exported field reachable from v to a distinct nonzero
// value drawn from *n, skipping the fields the wire format deliberately
// leaves out (Spec, rebuilt from the spec record, and Features, sampled by
// name). Slices get two elements and maps one entry; nesting stops after
// depth levels.
func fill(t *testing.T, v reflect.Value, n *int, depth int) {
	*n++
	switch {
	case v.Type() == taskType:
		v.SetInt(int64(core.PAR)) // the only nonzero value "par" carries
		return
	case v.Type() == duration:
		v.SetInt(int64(*n) * int64(250*time.Millisecond)) // exact in float seconds
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString("v" + strings.Repeat("x", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		if depth == 0 {
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n, depth-1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() || f.Name == "Spec" || f.Name == "Features" {
				continue
			}
			fill(t, v.Field(i), n, depth)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), n, depth)
		}
	case reflect.Map:
		if depth == 0 {
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
		val := reflect.New(v.Type().Elem()).Elem()
		fill(t, val, n, depth-1)
		*n++
		v.SetMapIndex(reflect.ValueOf("k"+strings.Repeat("x", *n)), val)
	default:
		t.Fatalf("fill: no rule for %s; teach the test how to populate it", v.Type())
	}
}

// dropSpecs clears the structural spec pointers, which Decode rebuilds
// rather than round-trips.
func dropSpecs(n *core.NestReport) {
	if n == nil {
		return
	}
	n.Spec = nil
	for _, c := range n.Children {
		dropSpecs(c)
	}
}

// TestEveryFieldRoundTrips fills every exported field of the report tree
// with a distinct nonzero value and pushes it through Recorder, ReadLog and
// Decode. A field added to Report, NestReport, StageReport or Config without
// a JSON tag, or tagged "-", fails here instead of silently vanishing from
// replayed incidents.
func TestEveryFieldRoundTrips(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(core.StageReport{}), reflect.TypeOf(core.NestReport{}),
		reflect.TypeOf(core.Config{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == "Spec" {
				continue
			}
			if tag := f.Tag.Get("json"); tag == "" || strings.HasPrefix(tag, "-") {
				t.Errorf("%s.%s has no wire name (json tag %q)", typ.Name(), f.Name, tag)
			}
		}
	}

	rep := &core.Report{}
	n := 0
	fill(t, reflect.ValueOf(rep).Elem(), &n, 3)

	var buf bytes.Buffer
	if err := NewRecorder(&buf).Record(rep); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadLog(&buf)
	if err != nil || len(entries) != 1 {
		t.Fatalf("ReadLog: %d entries, %v", len(entries), err)
	}
	back := Decode(entries[0])
	back.Features = nil
	dropSpecs(back.Root)
	if !reflect.DeepEqual(back, rep) {
		got, _ := json.Marshal(Encode(back))
		want, _ := json.Marshal(Encode(rep))
		t.Fatalf("round trip lost data:\n got  %s\n want %s", got, want)
	}
}

// asMap decodes one JSON document for key-order-free comparison.
func asMap(t testing.TB, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("not a JSON object: %v", err)
	}
	return m
}

// TestWireCompatFixture pins the wire format to a line the previous,
// hand-mirrored encoder wrote for fixtureReport: the core types must encode
// to the same document and decode it back to the same report.
func TestWireCompatFixture(t *testing.T) {
	fixture, err := os.ReadFile("testdata/entry_v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	rep := fixtureReport()
	var buf bytes.Buffer
	if err := NewRecorder(&buf).Record(rep); err != nil {
		t.Fatal(err)
	}
	if got, want := asMap(t, buf.Bytes()), asMap(t, fixture); !reflect.DeepEqual(got, want) {
		t.Fatalf("encoding drifted from the recorded wire format:\n got  %s\n want %s", buf.Bytes(), fixture)
	}

	entries, err := ReadLog(bytes.NewReader(fixture))
	if err != nil || len(entries) != 1 {
		t.Fatalf("ReadLog: %d entries, %v", len(entries), err)
	}
	back := Decode(entries[0])
	if got := back.Root.Children["inner"].Spec; got == nil || got.Name != "inner" || len(got.Alts) != 2 {
		t.Fatalf("child spec not re-attached: %+v", got)
	}
	if got, want := encodeSpec(back.Root.Spec), encodeSpec(rep.Root.Spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("spec structure: got %+v, want %+v", got, want)
	}
	for _, name := range rep.Features.Names() {
		want, _ := rep.Features.Value(name)
		if got, err := back.Features.Value(name); err != nil || got != want {
			t.Errorf("feature %s = %v, %v; want %v", name, got, err, want)
		}
	}
	back.Features, rep.Features = nil, nil
	dropSpecs(back.Root)
	dropSpecs(rep.Root)
	if !reflect.DeepEqual(back, rep) {
		t.Fatalf("decoded fixture differs:\n got  %+v\n want %+v", back, rep)
	}
}

// TestParRejectsNonBool: a "par" flag of the wrong type must fail the log,
// not decode as a silent SEQ.
func TestParRejectsNonBool(t *testing.T) {
	fixture, err := os.ReadFile("testdata/entry_v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`1`, `"true"`, `0`, `{}`, `[]`} {
		line := strings.Replace(string(fixture), `"par":true`, `"par":`+bad, 1)
		if _, err := ReadLog(strings.NewReader(line)); err == nil {
			t.Errorf(`"par":%s decoded without error`, bad)
		}
	}
	var typ core.TaskType = core.PAR
	if err := json.Unmarshal([]byte(`null`), &typ); err != nil || typ != core.PAR {
		t.Errorf("null par: %v, %v; want a no-op", typ, err)
	}
}

// canon normalizes a decoded JSON value for comparing a log line with its
// re-encoding: object keys are lowercased (encoding/json matches field
// names case-insensitively) and zero members dropped (absent, null, zero
// and omitempty all decode alike).
func canon(v any) any {
	switch v := v.(type) {
	case map[string]any:
		m := make(map[string]any, len(v))
		for k, x := range v {
			if x = canon(x); !isZero(x) {
				m[strings.ToLower(k)] = x
			}
		}
		return m
	case []any:
		s := make([]any, len(v))
		for i, x := range v {
			s[i] = canon(x)
		}
		return s
	}
	return v
}

// hasDupKeys reports whether an object in the document repeats a key, up to
// case. Struct and map decoding disagree on which repetition wins (a later
// null is a no-op for a struct field), so such lines say nothing about the
// schema.
func hasDupKeys(data []byte) bool {
	type frame struct {
		keys    map[string]bool // nil for arrays
		wantKey bool
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			stack = stack[:len(stack)-1]
			continue
		}
		if top != nil && top.keys != nil {
			if top.wantKey {
				k := strings.ToLower(tok.(string))
				if top.keys[k] {
					return true
				}
				top.keys[k] = true
			}
			top.wantKey = !top.wantKey
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{keys: map[string]bool{}, wantKey: true})
		case json.Delim('['):
			stack = append(stack, &frame{})
		}
	}
}

func isZero(v any) bool {
	switch v := v.(type) {
	case nil:
		return true
	case bool:
		return !v
	case float64:
		return v == 0
	case string:
		return v == ""
	case map[string]any:
		return len(v) == 0
	case []any:
		return len(v) == 0
	}
	return false
}

// FuzzReadLog: the decoder never panics, rejects what it cannot represent,
// and loses nothing it accepts — every decoded entry re-encodes to the
// document on its input line. Lines carrying keys outside the schema
// (ignored by design) or repeated keys are exempt from the equality check.
func FuzzReadLog(f *testing.F) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Record(fixtureReport())
	rec.Record(&core.Report{Time: time.Second, Contexts: 8})
	f.Add(buf.Bytes())
	if fixture, err := os.ReadFile("testdata/entry_v1.jsonl"); err == nil {
		f.Add(fixture)
		f.Add(bytes.Replace(fixture, []byte(`"par":true`), []byte(`"par":1`), 1))
		f.Add(fixture[:len(fixture)/2])
	}
	f.Add([]byte("{}\n\n{\"t\":1}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		var lines [][]byte
		for _, raw := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(raw)) > 0 {
				lines = append(lines, raw)
			}
		}
		if len(entries) > len(lines) {
			t.Fatalf("%d entries from %d lines", len(entries), len(lines))
		}
		for i, e := range entries {
			Decode(e)
			strict := json.NewDecoder(bytes.NewReader(lines[i]))
			strict.DisallowUnknownFields()
			if strict.Decode(new(Entry)) != nil {
				continue
			}
			out, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("entry %d does not re-encode: %v", i, err)
			}
			if hasDupKeys(lines[i]) {
				continue
			}
			got, want := canon(asMap(t, out)), canon(asMap(t, lines[i]))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("line %d lost data in the round trip:\n in  %s\n out %s", i, lines[i], out)
			}
		}
	})
}
