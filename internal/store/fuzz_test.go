package store

import (
	"bytes"
	"os"
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

// FuzzStoreGetNeverPanics drops arbitrary bytes where an entry file would
// live and asserts the read path quarantines rather than panics, and that
// the slot remains usable afterwards (the cache is never poisoned).
func FuzzStoreGetNeverPanics(f *testing.F) {
	f.Add([]byte("total garbage"))
	f.Add(encodeEntry("v1", "the-key", []byte("fine")))
	f.Add(encodeEntry("other-version", "the-key", []byte("stale")))
	f.Add(encodeEntry("v1", "wrong-key", []byte("misfiled")))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		s, err := Open(dir, Options{Version: "v1"})
		if err != nil {
			t.Fatal(err)
		}
		const key = "the-key"
		if err := os.WriteFile(s.fileFor(key), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Get(key); ok {
			// Only a well-formed same-version entry for this exact key may
			// be served, and then it must carry the encoded payload.
			version, gotKey, val, err := decodeEntry(raw)
			if err != nil || version != "v1" || gotKey != key || !bytes.Equal(v, val) {
				t.Fatalf("Get served %q from raw %q", v, raw)
			}
		}
		if err := s.Walk("", func(string, []byte) error { return nil }); err != nil {
			t.Fatalf("walk errored on fuzzed entry: %v", err)
		}
		// The slot must be clean for a recompute regardless of what the
		// fuzzer left there.
		if err := s.Put(key, []byte("recomputed")); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Get(key); !ok || string(v) != "recomputed" {
			t.Fatalf("slot poisoned after fuzzed entry: %q, %v", v, ok)
		}
	})
}
