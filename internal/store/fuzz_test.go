package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeEntry hammers the entry parser with arbitrary bytes: every
// input must either decode cleanly or return errCorrupt — no panics, no
// partial values — and anything encodeEntry produced must round-trip.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("coldtall-store/1\n"))
	f.Add(encodeEntry("v1", "char|SRAM|350", []byte("payload")))
	f.Add(encodeEntry("v1", "k", nil))
	f.Add([]byte("coldtall-store/1\nversion \"v1\"\nkey \"k\"\nlen 999999\ncrc32 00000000\nshort"))
	f.Add([]byte("coldtall-store/1\nversion \"v1\"\nkey \"k\"\nlen -1\ncrc32 zz\n"))
	// A length far beyond the entry must be rejected before it sizes an
	// allocation.
	f.Add([]byte("coldtall-store/1\nversion \"v1\"\nkey \"k\"\nlen 1099511627776\ncrc32 00000000\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		version, key, val, err := decodeEntry(raw)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the identical bytes —
		// the format has exactly one spelling per entry.
		if got := encodeEntry(version, key, val); !bytes.Equal(got, raw) {
			t.Errorf("decode/encode not a fixed point:\nin:  %q\nout: %q", raw, got)
		}
	})
}

// FuzzStoreGetNeverPanics writes arbitrary bytes as the store's log and
// opens it. Open must succeed, and Open, Get and Walk must never panic and
// never serve a payload that is not a whole, CRC-valid, same-version
// record of that key somewhere in the input. The store must then take a
// write and serve it back across a restart (the log is never poisoned).
func FuzzStoreGetNeverPanics(f *testing.F) {
	const key = "the-key"
	var log []byte
	for _, rec := range [][]byte{
		encodeEntry("v1", key, []byte("fine")),
		encodeEntry("v1", "other", []byte("also fine")),
		encodeEntry("", key, func() []byte { h := hashKey(key); return h[:] }()),
		encodeEntry("v1", key, []byte("again")),
	} {
		log = append(log, rec...)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(append(bytes.Clone(log), "garbage"...))
	f.Add([]byte("total garbage"))
	f.Add(encodeEntry("other-version", key, []byte("stale")))
	f.Add(encodeEntry("", key, []byte("short tombstone")))
	f.Add([]byte{})
	f.Add(append(append([]byte("coldtall-store/1\ngarbage\n"), log...), encodeEntry("v1", key, []byte("after damage"))...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Version: "v1"})
		if err != nil {
			t.Fatalf("open on fuzzed log: %v", err)
		}
		vouched := func(k string, v []byte) {
			if !bytes.Contains(raw, encodeEntry("v1", k, v)) {
				t.Fatalf("served %q = %q, which no record in the input carries", k, v)
			}
		}
		if v, ok := s.Get(key); ok {
			vouched(key, v)
		}
		if err := s.Walk("", func(k string, v []byte) error {
			vouched(k, v)
			return nil
		}); err != nil {
			t.Fatalf("walk errored on fuzzed log: %v", err)
		}
		if err := s.Put(key, []byte("recomputed")); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Get(key); !ok || string(v) != "recomputed" {
			t.Fatalf("slot poisoned after fuzzed log: %q, %v", v, ok)
		}
		r, err := Open(dir, Options{Version: "v1"})
		if err != nil {
			t.Fatalf("reopen after fuzzed log: %v", err)
		}
		if v, ok := r.Get(key); !ok || string(v) != "recomputed" {
			t.Fatalf("write lost across restart after fuzzed log: %q, %v", v, ok)
		}
	})
}
