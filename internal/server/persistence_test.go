package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"testing"

	"coldtall/internal/array"
	"coldtall/internal/store"
)

// fillDistinct sets every leaf field under v to a value no other field
// holds, recursing into nested structs; float fields cycle through +Inf and
// -Inf as well. A field of a kind it does not know fails the test, so a
// new Result field must be taught here — and then to the encoder, or the
// round trip below fails.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		*next++
		switch f.Kind() {
		case reflect.Struct:
			fillDistinct(t, f, next)
		case reflect.Int:
			f.SetInt(int64(*next) * 1001)
		case reflect.String:
			f.SetString(fmt.Sprintf("cell-%d", *next))
		case reflect.Float64:
			switch *next % 7 {
			case 3:
				f.SetFloat(math.Inf(1))
			case 5:
				f.SetFloat(math.Inf(-1))
			default:
				f.SetFloat(float64(*next) * 1.25e-9)
			}
		default:
			t.Fatalf("field %s has kind %s, which fillDistinct does not fill", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestResultEncodingRoundTrip: every field of a characterization, nested
// organization and latency breakdowns included, survives the char| encoding
// exactly, ±Inf among them, and NaN keeps its bits.
func TestResultEncodingRoundTrip(t *testing.T) {
	var want array.Result
	next := 0
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &next)
	got, ok := decodeResult(encodeResult(want))
	if !ok {
		t.Fatal("decodeResult rejected encodeResult's output")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	want.Retention, want.ReadParts.WritePulse = nan, math.Inf(1)
	got, ok = decodeResult(encodeResult(want))
	if !ok || math.Float64bits(got.Retention) != math.Float64bits(nan) || !math.IsInf(got.ReadParts.WritePulse, 1) {
		t.Errorf("NaN or +Inf not bit-exact: retention %x, pulse %v", math.Float64bits(got.Retention), got.ReadParts.WritePulse)
	}
}

// TestResultDecodingRejects: truncated, padded or foreign bytes are a miss,
// never a partly filled result.
func TestResultDecodingRejects(t *testing.T) {
	enc := encodeResult(array.Result{CellName: "SRAM", Temperature: 350, Retention: math.Inf(1)})
	for i := 0; i < len(enc); i++ {
		if _, ok := decodeResult(enc[:i]); ok {
			t.Fatalf("a %d-byte prefix of a %d-byte encoding decoded", i, len(enc))
		}
	}
	if _, ok := decodeResult(append(bytes.Clone(enc), 0)); ok {
		t.Error("trailing byte accepted")
	}
}

// TestCharStoreOldGobEntryMisses: a char| entry an older build wrote with
// gob is a miss, and the recomputed Save replaces it.
func TestCharStoreOldGobEntryMisses(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	r := array.Result{CellName: "SRAM-6T", Temperature: 350, Dies: 1, Retention: math.Inf(1)}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(r); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(charPrefix+"k", old.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := charStore{st}
	if _, ok := c.Load("k"); ok {
		t.Fatal("a gob-encoded entry decoded")
	}
	c.Save("k", r)
	if got, ok := c.Load("k"); !ok || !reflect.DeepEqual(got, r) {
		t.Fatalf("after Save, Load = %+v, %v", got, ok)
	}
}
