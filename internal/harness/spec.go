package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Content-addressed job specs.
//
// Every run in this reproduction is deterministic — the pinned goldens
// prove bit-identical modeled metrics serially and on the worker pool — so
// a Record is a pure function of (app, backend, scenario, engine
// version).  SpecHash names that function application: a canonical hash
// of the full job spec, stable across processes and registry instances,
// usable as a cache key by any layer that memoizes records (the serve
// subsystem's store, a future coordinator/worker split).
//
// The canonical form is an order-stable text rendering: fixed header
// lines for the identity fields, then every non-zero leaf of the
// scenario's Config as one "path=value" line with struct fields in
// declaration order and map keys sorted.  Zero-valued leaves are
// omitted, so adding a new config knob whose zero value preserves
// today's behavior does not move existing hashes.  The backend's
// configuration beyond its name is deliberately excluded: a Variant's
// scenario rewrite is a fixed function of its registered name, versioned
// by EngineVersion like every other piece of model code.
//
// EngineVersion ties hashes to the modeled-metrics vintage.  Bump it in
// lockstep with golden regeneration: any PR that changes modeled
// Time/Messages/Bytes (a "model-change" PR regenerating golden_test.go)
// must also bump EngineVersion, so stale cached records from the old
// model can never answer for the new one.  Pure performance work that
// keeps the goldens byte-identical must NOT bump it — warm caches stay
// warm across such releases.

// EngineVersion is the modeled-metrics vintage baked into every spec
// hash.  Bump rule: regenerated goldens => new version; byte-identical
// goldens => same version.
const EngineVersion = "msvdsm-1"

// SpecHash returns the content address of one grid job: the hex SHA-256
// of CanonicalSpec.  Equal hashes mean "the engine would produce the
// identical Record", so a memoizing store may answer one job with
// another's cached record.
func SpecHash(j Job) string {
	sum := sha256.Sum256([]byte(CanonicalSpec(j)))
	return hex.EncodeToString(sum[:])
}

// CanonicalSpec renders a grid job in the canonical text form SpecHash
// digests.  Exported for debugging and golden tests; the serve API's
// /v1/spec endpoint returns hashes derived from exactly this string.
func CanonicalSpec(j Job) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "engine=%s\n", EngineVersion)
	fmt.Fprintf(&sb, "app=%s\n", j.App.Name())
	fmt.Fprintf(&sb, "problem=%s\n", j.App.Problem())
	fmt.Fprintf(&sb, "backend=%s\n", j.Backend.Name())
	fmt.Fprintf(&sb, "scenario=%s\n", j.Scenario.Name)
	canonValue(&sb, "config", reflect.ValueOf(j.Scenario.Config))
	return sb.String()
}

// CanonicalString renders any config-like value (structs, maps, slices,
// scalars) in the canonical form CanonicalSpec uses for the scenario
// config.  Exported so tests can pin the ordering rules — in particular
// that map iteration order never leaks into the rendering.
func CanonicalString(name string, v any) string {
	var sb strings.Builder
	canonValue(&sb, name, reflect.ValueOf(v))
	return sb.String()
}

// canonValue appends the canonical "path=value" lines of v.  Struct
// fields render in declaration order, slice elements by index, map
// entries sorted by key; zero-valued leaves and empty containers render
// nothing.  Kinds a config struct should never contain (funcs,
// channels, unsafe pointers) panic loudly rather than hash ambiguously.
func canonValue(sb *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			canonValue(sb, path+"."+t.Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if v.Len() == 0 {
			return
		}
		fmt.Fprintf(sb, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			canonValue(sb, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			return
		}
		keys := make([]string, 0, v.Len())
		byKey := make(map[string]reflect.Value, v.Len())
		for _, k := range v.MapKeys() {
			ks := fmt.Sprintf("%v", k.Interface())
			keys = append(keys, ks)
			byKey[ks] = v.MapIndex(k)
		}
		sort.Strings(keys)
		fmt.Fprintf(sb, "%s.len=%d\n", path, v.Len())
		for _, ks := range keys {
			canonValue(sb, path+"["+ks+"]", byKey[ks])
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return
		}
		canonValue(sb, path, v.Elem())
	case reflect.Bool:
		if v.Bool() {
			fmt.Fprintf(sb, "%s=true\n", path)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if n := v.Int(); n != 0 {
			fmt.Fprintf(sb, "%s=%d\n", path, n)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if n := v.Uint(); n != 0 {
			fmt.Fprintf(sb, "%s=%d\n", path, n)
		}
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); f != 0 {
			fmt.Fprintf(sb, "%s=%g\n", path, f)
		}
	case reflect.String:
		if s := v.String(); s != "" {
			fmt.Fprintf(sb, "%s=%q\n", path, s)
		}
	case reflect.Complex64, reflect.Complex128:
		if c := v.Complex(); c != 0 {
			fmt.Fprintf(sb, "%s=%v\n", path, c)
		}
	default:
		panic(fmt.Sprintf("harness: cannot canonicalize %s (kind %s) in a job spec", path, v.Kind()))
	}
}
