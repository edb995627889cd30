package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's
// side of the boundary.  Trace groups the spans of one job or request;
// Parent is the id of the enclosing span (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int32  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.  A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	trace int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace id for one job or request.
func (t *tracer) newTrace() int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent, trace int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// sum returns the total duration of the closed spans named name whose
// ids lie in [from, to).
func (t *tracer) sum(name string, from, to int32) time.Duration {
	var d time.Duration
	for _, s := range t.spans[from-1 : to-1] {
		if s.Name == name && s.End != 0 {
			d += s.dur()
		}
	}
	return d
}

// next returns the id the next span will get.
func (t *tracer) next() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int32(len(t.spans) + 1)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// modules are the layers CPU samples are attributed to, by the package
// of the innermost frame.  Samples in no listed package land in "other"
// (the standard library outside the runtime, and the benchmark itself).
var modules = []struct{ name, prefix string }{
	{"apps", "repro/internal/apps/"},
	{"tmk", "repro/internal/tmk."},
	{"pvm", "repro/internal/pvm."},
	{"vnet", "repro/internal/vnet."},
	{"sim", "repro/internal/sim."},
	{"harness", "repro/internal/harness."},
	{"harness", "repro/internal/core."},
	{"serve", "repro/internal/serve."},
	{"runtime", "runtime."},
	{"runtime", "runtime/"},
	{"runtime", "internal/runtime/"},
}

// moduleNames lists the cpu.<module> metrics in reporting order.
var moduleNames = []string{"apps", "tmk", "pvm", "vnet", "sim", "harness", "serve", "runtime", "other"}

func moduleOf(fn string) string {
	for _, m := range modules {
		if strings.HasPrefix(fn, m.prefix) {
			return m.name
		}
	}
	return "other"
}

// cpuProfile wraps runtime/pprof's CPU profiler into an in-memory
// buffer, so the profile of exactly the traced phase can be summed by
// module and also written out.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends profiling and returns the share of samples per module.
func (p *cpuProfile) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	counts, err := samplesByLeaf(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	var total int64
	for fn, n := range counts {
		shares[moduleOf(fn)] += float64(n)
		total += n
	}
	for m := range shares {
		shares[m] /= float64(total)
	}
	return shares, total, nil
}

// samplesByLeaf decodes a gzipped profile.proto and returns the sample
// count per innermost function name.  Only the fields this needs are
// read: Profile.sample (2), location (4), function (5), string_table
// (6); Sample.location_id (1) and value (2); Location.id (1) and line
// (4); Line.function_id (1); Function.id (1) and name (2).
func samplesByLeaf(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := uints(wire, v, b)
					if err != nil {
						return err
					}
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2:
					vals, err := uints(wire, v, b)
					if err != nil {
						return err
					}
					if s.count == 0 && len(vals) > 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i := funcName[locFunc[s.leaf]]; i > 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += s.count
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, passing each field's number and
// wire type with its varint value (wire 0) or its bytes (wire 2).
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// uints decodes a repeated integer field, packed (wire 2) or not.
func uints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
