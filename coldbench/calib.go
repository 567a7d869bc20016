package main

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// The machine's speed is not constant. On a shared VM the CPU time of one
// and the same process drifts by half over seconds and by a third over tens
// of minutes (neighbours share the cores and caches), which no run length
// or median holds inside a bound of 0.25. So the gated CPU times are
// calibrated: between units of measured work the harness runs a fixed
// calibration process, and each unit's CPU time is scaled by how fast the
// calibration ran beside it. A gated time is the CPU time the unit would
// take on a machine on which the calibration costs calibRefMS.
//
// The calibration is a fresh process of the harness itself (fresh address
// space and cold caches, like every measured child) doing a fixed mix of
// standard-library work: allocation, maps, sorting, JSON, flate, SHA-256,
// formatting and floating-point math. It runs no program code, so no change
// to the program moves it. Its CPU time tracks the measured processes' far
// better than a tight in-process loop does: over thirty alternating runs a
// three times longer version of it correlated 0.82 with `coldtall export`,
// and the ratio spread half as much as the raw CPU time.

// calibRefMS is the calibration process's median CPU time on the reference
// machine, the 2-vCPU Intel Xeon VM the README's figures come from.
const calibRefMS = 80.0

// calibRecords sizes the calibration work (about calibRefMS of CPU).
const calibRecords = 2000

// calibrationMain is the calibration process's body.
func calibrationMain(w io.Writer) {
	type rec struct {
		Name  string
		Temp  float64
		Vals  []float64
		Flags map[string]int
	}
	var recs []rec
	for i := 0; i < calibRecords; i++ {
		r := rec{Name: "pt-" + strconv.Itoa(i*7919%10007), Temp: 77 + float64(i%324), Flags: map[string]int{"a": i, "b": 2 * i}}
		for j := 0; j < 12; j++ {
			r.Vals = append(r.Vals, math.Exp(-float64(j)*r.Temp/300)*math.Log1p(float64(i+j)))
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	raw, _ := json.Marshal(recs)
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, 5)
	fw.Write(raw)
	fw.Close()
	var back []rec
	_ = json.Unmarshal(raw, &back)
	h := sha256.New()
	for _, r := range back {
		fmt.Fprintf(h, "%s,%.6g,%v\n", r.Name, r.Temp, r.Vals[3])
	}
	h.Write(buf.Bytes())
	fmt.Fprintf(w, "%x\n", h.Sum(nil))
}

// calibrate runs one calibration process and returns its CPU milliseconds.
func (b *bench) calibrate(ctx context.Context) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, "-calibrate")
	cmd.Env = b.childEnv()
	if out, err := cmd.Output(); err != nil || len(out) == 0 {
		return 0, fmt.Errorf("calibration process: %v", err)
	}
	return ms(usageOf(cmd.ProcessState).cpu), nil
}

// scaler scales each unit of measured work by the calibration runs on
// either side of it; consecutive units share the run between them.
type scaler struct {
	b    *bench
	last float64   // the most recent calibration, 0 before the first
	runs []float64 // every calibration, for the record
}

func (b *bench) newScaler() *scaler { return &scaler{b: b} }

// before makes sure a calibration directly precedes the next unit.
func (s *scaler) before(ctx context.Context) error {
	if s.last > 0 {
		return nil
	}
	c, err := s.b.calibrate(ctx)
	s.last, s.runs = c, append(s.runs, c)
	return err
}

// after calibrates once more and returns the factor that turns the CPU
// time of the unit just measured into CPU time at the reference speed.
func (s *scaler) after(ctx context.Context) (float64, error) {
	prev := s.last
	c, err := s.b.calibrate(ctx)
	if err != nil {
		return 0, err
	}
	s.last, s.runs = c, append(s.runs, c)
	return calibRefMS / ((prev + c) / 2), nil
}

// note records the calibration runs beside the workload's metrics.
func (s *scaler) note() {
	s.b.note("calibration_cpu_ms", "ms", median(s.runs), len(s.runs))
}
