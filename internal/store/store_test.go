package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// encodeEntry renders an entry's on-disk bytes exactly as Put writes them.
func encodeEntry(version, key string, val []byte) []byte {
	var b bytes.Buffer
	if err := writeEntry(&b, version, key, val); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func open(t *testing.T, dir, version string) *Store {
	t.Helper()
	s, err := Open(dir, Options{Version: version})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenValidates(t *testing.T) {
	if _, err := Open("", Options{Version: "v1"}); err == nil {
		t.Error("empty dir should error")
	}
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("missing version stamp should error")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	if _, ok := s.Get("missing"); ok {
		t.Error("missing key should miss")
	}
	val := []byte("payload with\nnewlines and \x00 bytes")
	if err := s.Put("k|1", val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k|1")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, val)
	}
	// Overwrite is a plain replace.
	if err := s.Put("k|1", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("k|1"); string(got) != "second" {
		t.Errorf("after overwrite Get = %q", got)
	}
	st := s.Stats()
	if st.Puts != 2 || st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReopenSurvivesRestart is the core persistence contract: a new Store
// over the same directory serves entries written by the old one.
func TestReopenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, "v1")
	for i := 0; i < 5; i++ {
		if err := s1.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir, "v1")
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("after reopen, key-%d = %q, %v", i, got, ok)
		}
	}
	if n := s2.Len(); n != 5 {
		t.Errorf("Len = %d, want 5", n)
	}
}

// TestVersionSkewInvalidates pins the model-version contract: entries
// written under one physics version are invisible under another, and a
// fresh Put replaces the stale entry in place.
func TestVersionSkewInvalidates(t *testing.T) {
	dir := t.TempDir()
	old := open(t, dir, "v1")
	if err := old.Put("k", []byte("stale physics")); err != nil {
		t.Fatal(err)
	}
	next := open(t, dir, "v2")
	if _, ok := next.Get("k"); ok {
		t.Fatal("v2 store must not serve a v1 entry")
	}
	if next.Stats().Skipped == 0 {
		t.Error("version skew should be counted")
	}
	if err := next.Put("k", []byte("fresh physics")); err != nil {
		t.Fatal(err)
	}
	if got, ok := next.Get("k"); !ok || string(got) != "fresh physics" {
		t.Fatalf("after re-put, Get = %q, %v", got, ok)
	}
	if n := next.Len(); n != 1 {
		t.Errorf("stale entry should be overwritten in place, Len = %d", n)
	}
}

// TestCorruptEntryQuarantined: a damaged entry reports a miss, moves to
// quarantine/, and the key is writable again — never a panic, never a
// poisoned value.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	if err := s.Put("k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	path := s.fileFor("k")
	if err := os.WriteFile(path, []byte("coldtall-store/1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry must miss")
	}
	if s.Stats().Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", s.Stats().Corrupt)
	}
	quarantined, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantine dir holds %d files (err %v), want 1", len(quarantined), err)
	}
	// The slot is clean again.
	if err := s.Put("k", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "recomputed" {
		t.Fatalf("after recompute, Get = %q, %v", got, ok)
	}
}

// TestCRCMismatchQuarantined: a bit flip in the payload fails the CRC.
func TestCRCMismatchQuarantined(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	if err := s.Put("k", []byte("sensitive-bits")); err != nil {
		t.Fatal(err)
	}
	path := s.fileFor("k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("bit-flipped entry must miss")
	}
	if s.Stats().Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", s.Stats().Corrupt)
	}
}

func TestWalkVisitsLiveEntriesInOrder(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	for k, v := range want {
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign-version entry and a corrupt file must both be skipped.
	other := open(t, dir, "v0")
	if err := other.Put("ghost", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, entriesDir, "junk.entry"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	var order []string
	if err := s.Walk("", func(key string, val []byte) error {
		got[key] = string(val)
		order = append(order, key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("walked %v, want keys of %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("walk[%s] = %q, want %q", k, got[k], v)
		}
	}
	// Deterministic order: repeat walk sees the same sequence.
	var order2 []string
	if err := s.Walk("", func(key string, _ []byte) error {
		order2 = append(order2, key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != strings.Join(order2, ",") {
		t.Errorf("walk order not deterministic: %v vs %v", order, order2)
	}
	if s.Stats().Corrupt == 0 {
		t.Error("walk should have quarantined the junk file")
	}
}

func TestDelete(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Error("deleted key should miss")
	}
	if err := s.Delete("k"); err != nil {
		t.Error("double delete should be a no-op:", err)
	}
}

// TestKeyFormatGolden pins the on-disk contract so compatibility breaks
// loudly: the file-name derivation (truncated SHA-256 of the key) and the
// exact entry encoding. If this test fails, readers of existing store
// directories will miss every entry — bump the magic and write a
// migration note before shipping such a change.
func TestKeyFormatGolden(t *testing.T) {
	const key = "char|SRAM-6T|sram|350|1|TSV|0|"
	s := open(t, t.TempDir(), "vtest")
	if got, want := filepath.Base(s.fileFor(key)), "2010be8c306e4b754bbf6b7e0d75fe1e225f42fe.entry"; got != want {
		t.Errorf("fileFor(%q) = %s, want %s", key, got, want)
	}
	wantEntry := "coldtall-store/1\n" +
		"version \"vtest\"\n" +
		"key \"char|SRAM-6T|sram|350|1|TSV|0|\"\n" +
		"len 13\n" +
		"crc32 44893831\n" +
		"hello-payload"
	if got := string(encodeEntry("vtest", key, []byte("hello-payload"))); got != wantEntry {
		t.Errorf("entry encoding drifted:\ngot:\n%s\nwant:\n%s", got, wantEntry)
	}
	// Put streams the header and then the payload into the entry file;
	// the bytes on disk must be the same encoding.
	if err := s.Put(key, []byte("hello-payload")); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(s.fileFor(key)); err != nil || string(raw) != wantEntry {
		t.Errorf("Put wrote %q (%v), want %q", raw, err, wantEntry)
	}
}

// TestWalkPrefix: a prefixed walk visits exactly the keys under the
// prefix in file-name order, quarantines header-corrupt entries, and
// leaves a payload-corrupt entry under another prefix for the Get that
// reads it to quarantine.
func TestWalkPrefix(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	for _, k := range []string{"job|a", "job|b", "job|c", "jobcell|x", "resp|y", "jo"} {
		if err := s.Put(k, []byte("val-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// Payload corruption under another prefix: a flipped payload byte
	// keeps the header parseable but breaks the CRC.
	if err := s.Put("resp|bad", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	badPath := s.fileFor("resp|bad")
	raw, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Header corruption: no parseable header at all.
	junk := filepath.Join(dir, entriesDir, "junk.entry")
	if err := os.WriteFile(junk, []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The expected visit order is the entries' file-name order.
	want := []string{"job|a", "job|b", "job|c"}
	sort.Slice(want, func(i, j int) bool { return s.fileFor(want[i]) < s.fileFor(want[j]) })
	var got []string
	if err := s.Walk("job|", func(key string, val []byte) error {
		if string(val) != "val-"+key {
			t.Errorf("walk %s: value %q", key, val)
		}
		got = append(got, key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Walk(job|) visited %v, want %v", got, want)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Error("header-corrupt entry was not quarantined by the prefixed walk")
	}
	if c := s.Stats().Corrupt; c != 1 {
		t.Errorf("corrupt count after walk = %d, want 1 (the junk header only)", c)
	}
	if _, err := os.Stat(badPath); err != nil {
		t.Errorf("payload-corrupt entry outside the prefix was touched: %v", err)
	}
	if _, ok := s.Get("resp|bad"); ok {
		t.Fatal("payload-corrupt entry served")
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Error("Get did not quarantine the payload-corrupt entry")
	}
	if c := s.Stats().Corrupt; c != 2 {
		t.Errorf("corrupt count after Get = %d, want 2", c)
	}
}

// TestConcurrentPutGet races writers and readers over a small keyspace;
// run under -race this pins the store's concurrency safety.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k-%d", i%7)
				if g%2 == 0 {
					if err := s.Put(key, []byte(key)); err != nil {
						t.Error(err)
						return
					}
				} else if v, ok := s.Get(key); ok && string(v) != key {
					t.Errorf("Get(%s) = %q", key, v)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
