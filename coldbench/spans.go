package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracing in the benchmark's own code: spans around the calls the
// benchmark makes into each layer, kept in memory and written to the run
// record at the end. A nil *recorder is tracing off and records nothing.

// span is one timed call; Parent 0 marks a top-level span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (0 when tracing is off).
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerOfSpan is the layer a span name belongs to: the text before its
// first dot ("array.optimize" → "array").
func layerOfSpan(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of its interval its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOfSpan(s.Name)] += time.Duration(s.End - s.Start - covered(kids[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerRow is one row of the traced table. CPU columns attribute each
// profile sample to the innermost coldtall frame on its stack; samples
// with none (GC, scheduler, network) are "unattributed".
type layerRow struct {
	Layer string `json:"layer"`
	// WalkSpanMS is the layer's span self time in the layer walk: the
	// walk's time inside that layer's public calls ("unattributed" is the
	// walk's own time outside every span).
	WalkSpanMS float64 `json:"walk_span_ms"`
	// WalkCPUMS is the layer's CPU self time during the walk.
	WalkCPUMS float64 `json:"walk_cpu_ms"`
	// FlowCPUMS and FlowCPUShare are the layer's CPU self time in the
	// workload's traced flow and its share of the flow's CPU.
	FlowCPUMS    float64 `json:"flow_cpu_ms"`
	FlowCPUShare float64 `json:"flow_cpu_share"`
}

// layers names the modules the benchmark attributes time to, in the order
// of the traced table; "other" sums every coldtall package outside them.
var layers = []string{"artifact", "explorer", "array", "tech", "workload", "trace", "sim", "signature",
	"ingest", "store", "cache", "server", "other", "unattributed"}

// layerOfPackage maps a coldtall package to its layer. The root package
// is the artifact layer (Study and the registry); report is artifact
// rendering; cell and stack are the array model's components.
var layerOfPackage = map[string]string{
	"coldtall": "artifact", "artifact": "artifact", "report": "artifact",
	"explorer": "explorer", "array": "array", "cell": "array", "stack": "array", "tech": "tech",
	"workload": "workload", "trace": "trace", "sim": "sim", "signature": "signature", "ingest": "ingest",
	"store": "store", "cache": "cache", "server": "server",
}

// layerOfFunc maps a profiled function name to its layer, "other/<pkg>"
// for coldtall packages outside the named layers, or "" when the function
// is not coldtall code.
func layerOfFunc(fn string) string {
	// Type arguments of a generic function may hold other package paths.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	if pkg != "coldtall" {
		var ok bool
		if pkg, ok = strings.CutPrefix(pkg, "coldtall/internal/"); !ok {
			return ""
		}
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	return "other/" + pkg
}

// cpuByLayer reads a gzipped pprof CPU profile and returns CPU
// milliseconds per layer, with "other" broken out by package.
func cpuByLayer(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		types     [][2]uint64             // sample_type (type, unit) string indices
		samples   [][2][]uint64           // (location ids, values)
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → name string index
	)
	err = pbFields(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 1:
			var t [2]uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2:
			var s [2][]uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				if f == 1 || f == 2 {
					s[f-1] = appendPacked(s[f-1], v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vi := len(types) - 1
	for i, t := range types {
		if int(t[0]) < len(strs) && strs[t[0]] == "cpu" {
			vi = i
		}
	}
	out := map[string]float64{}
	for _, s := range samples {
		if vi < 0 || vi >= len(s[1]) {
			continue
		}
		layer := "unattributed"
	stack:
		for _, loc := range s[0] {
			for _, fid := range locLines[loc] {
				if n := funcNames[fid]; int(n) < len(strs) {
					if l := layerOfFunc(strs[n]); l != "" {
						layer = l
						break stack
					}
				}
			}
		}
		out[layer] += float64(s[1][vi]) / 1e6
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its bytes.
func pbFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, 0, data[n:n+int(l)]); err != nil {
				return err
			}
			data = data[n+int(l):]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func printLayers(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-13s %13s %12s %12s %10s\n", "layer", "walk span ms", "walk cpu ms", "flow cpu ms", "flow share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-13s %13.1f %12.1f %12.1f %9.1f%%\n", r.Layer, r.WalkSpanMS, r.WalkCPUMS, r.FlowCPUMS, 100*r.FlowCPUShare)
	}
}

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }
