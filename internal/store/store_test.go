package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// encodeEntry renders a record's bytes exactly as Put appends them.
func encodeEntry(version, key string, val []byte) []byte {
	return append(appendHeader(nil, version, key, val), val...)
}

func open(t testing.TB, dir, version string) *Store {
	t.Helper()
	s, err := Open(dir, Options{Version: version})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func logFile(dir string) string { return filepath.Join(dir, logName) }

// spanOf returns where key's live record sits in the log.
func spanOf(t *testing.T, s *Store, key string) span {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	sp, ok := s.index.get(hashKey(key))
	if !ok {
		t.Fatalf("key %q is not indexed", key)
	}
	return sp
}

// patchLog overwrites the log's bytes at off with b, in place.
func patchLog(t *testing.T, dir string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(logFile(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// flipByte XORs mask into the log byte at off.
func flipByte(t *testing.T, dir string, off int64, mask byte) {
	t.Helper()
	raw, err := os.ReadFile(logFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	patchLog(t, dir, off, []byte{raw[off] ^ mask})
}

// quarantined lists the files in quarantine/.
func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
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
// over the same directory serves entries written by the old one, including
// one too large to be appended with a single write.
func TestReopenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, "v1")
	for i := 0; i < 5; i++ {
		if err := s1.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), oneWriteMax/8)
	if err := s1.Put("big", big); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, "v1")
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("after reopen, key-%d = %q, %v", i, got, ok)
		}
	}
	if got, ok := s2.Get("big"); !ok || !bytes.Equal(got, big) {
		t.Fatalf("after reopen, big entry = %d bytes, %v", len(got), ok)
	}
	if n := s2.Len(); n != 6 {
		t.Errorf("Len = %d, want 6", n)
	}
}

// TestVersionSkewInvalidates pins the model-version contract: entries
// written under one physics version are invisible under another, and a
// fresh Put supersedes the stale entry.
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
		t.Errorf("stale entry should be superseded, Len = %d", n)
	}
}

// TestCorruptEntryQuarantined: a record whose header is damaged in place
// reports a miss, is copied to quarantine/ and counted once, and the key
// is writable again — never a panic, never a poisoned value. The records
// after it survive a restart, and the restart does not count it again.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	if err := s.Put("k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("after", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	sp := spanOf(t, s, "k")
	patchLog(t, dir, sp.off, []byte("coldtall-store/1\ngarbage"))
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry must miss")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("quarantined entry must stay a miss")
	}
	if c := s.Stats().Corrupt; c != 1 {
		t.Errorf("corrupt count = %d, want 1", c)
	}
	if q := quarantined(t, dir); len(q) != 1 || q[0] != hashKey("k").String()+entryExt {
		t.Fatalf("quarantine holds %v, want the one record", q)
	}
	// The slot is clean again.
	if err := s.Put("k", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "recomputed" {
		t.Fatalf("after recompute, Get = %q, %v", got, ok)
	}
	r := open(t, dir, "v1")
	if got, ok := r.Get("after"); !ok || string(got) != "kept" {
		t.Errorf("after restart, the later record = %q, %v", got, ok)
	}
	if got, ok := r.Get("k"); !ok || string(got) != "recomputed" {
		t.Errorf("after restart, the recomputed record = %q, %v", got, ok)
	}
	if c := r.Stats().Corrupt; c != 0 {
		t.Errorf("restart re-counted the quarantined record: corrupt = %d", c)
	}
}

// TestCRCMismatchQuarantined: a bit flip in the payload fails the CRC.
func TestCRCMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	if err := s.Put("k", []byte("sensitive-bits")); err != nil {
		t.Fatal(err)
	}
	sp := spanOf(t, s, "k")
	flipByte(t, dir, sp.off+sp.n-1, 0x01)
	if _, ok := s.Get("k"); ok {
		t.Fatal("bit-flipped entry must miss")
	}
	if s.Stats().Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", s.Stats().Corrupt)
	}
}

// TestBitFlipMidLogCountedOnce: one flipped payload bit in a record in the
// middle of the log makes exactly that record a miss. It is quarantined
// and counted once, whether Get, Walk or a restart meets it next, and
// every other record is still served.
func TestBitFlipMidLogCountedOnce(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	keys := []string{"r0", "r1", "r2", "r3", "r4"}
	for _, k := range keys {
		if err := s.Put(k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	sp := spanOf(t, s, "r2")
	flipByte(t, dir, sp.off+sp.n-3, 0x10)

	s = open(t, dir, "v1") // a scan does not read payloads
	if c := s.Stats().Corrupt; c != 0 {
		t.Fatalf("open counted %d corrupt records before any read", c)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s.Get("r2"); ok {
			t.Fatal("flipped record served")
		}
	}
	if err := s.Walk("", func(key string, _ []byte) error {
		if key == "r2" {
			t.Error("walk visited the flipped record")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c := s.Stats().Corrupt; c != 1 {
		t.Errorf("corrupt count = %d, want exactly 1", c)
	}
	if q := quarantined(t, dir); len(q) != 1 {
		t.Errorf("quarantine holds %v, want one file", q)
	}
	r := open(t, dir, "v1")
	for _, k := range keys {
		got, ok := r.Get(k)
		if k == "r2" {
			if ok {
				t.Error("flipped record served after restart")
			}
			continue
		}
		if !ok || string(got) != "payload of "+k {
			t.Errorf("after restart %s = %q, %v", k, got, ok)
		}
	}
	if c := r.Stats().Corrupt; c != 0 {
		t.Errorf("restart re-counted the quarantined record: corrupt = %d", c)
	}
}

// op is one store mutation in the crash-point model.
type op struct {
	key string
	val []byte // nil: Delete
	end int64  // log size once the op's record is appended
}

// TestTornTailEveryCrashPoint cuts the log at every byte offset inside its
// last records — each cut is where a process crash can leave an append —
// and reopens. Open never fails; every operation whose record ends at or
// before the cut is served byte-identical (deletes included); nothing past
// the cut is; the torn tail is not counted as corruption; and the store
// appends cleanly after it.
func TestTornTailEveryCrashPoint(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	var ops []op
	do := func(key string, val []byte) {
		var err error
		if val == nil {
			err = s.Delete(key)
		} else {
			err = s.Put(key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op{key, val, s.size})
	}
	for i := 0; i < 6; i++ {
		do(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("value %d\n%s", i, strings.Repeat("x", i*7))))
	}
	do("k1", nil)
	do("k2", []byte("k2 overwritten"))
	do("k0", []byte{})
	do("k6", []byte("last"))
	full, err := os.ReadFile(logFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != ops[len(ops)-1].end {
		t.Fatalf("log holds %d bytes, index says %d", len(full), ops[len(ops)-1].end)
	}
	from := ops[len(ops)-5].end // the last four records
	for cut := from; cut <= int64(len(full)); cut++ {
		want := map[string][]byte{}
		var whole int64 // where the last record the cut left whole ends
		for _, o := range ops {
			if o.end > cut {
				break
			}
			whole = o.end
			if o.val == nil {
				delete(want, o.key)
			} else {
				want[o.key] = o.val
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(logFile(cdir), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(cdir, Options{Version: "v1"})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		for _, k := range []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6"} {
			got, ok := r.Get(k)
			w, wok := want[k]
			if ok != wok || !bytes.Equal(got, w) {
				t.Fatalf("cut %d: Get(%s) = %q, %v; want %q, %v", cut, k, got, ok, w, wok)
			}
		}
		if r.Len() != len(want) {
			t.Fatalf("cut %d: Len = %d, want %d", cut, r.Len(), len(want))
		}
		if c := r.Stats().Corrupt; c != 0 {
			t.Fatalf("cut %d: torn tail counted as %d corrupt records", cut, c)
		}
		if fi, err := os.Stat(logFile(cdir)); err != nil || fi.Size() != whole {
			t.Fatalf("cut %d: open left a %d-byte log, want the torn tail truncated to %d (%v)", cut, fi.Size(), whole, err)
		}
		if err := r.Put("k7", []byte("after the crash")); err != nil {
			t.Fatal(err)
		}
		again := open(t, cdir, "v1")
		if got, ok := again.Get("k7"); !ok || string(got) != "after the crash" {
			t.Fatalf("cut %d: append after the torn tail lost: %q, %v", cut, got, ok)
		}
		if st := again.Stats(); st.Corrupt != 0 || st.Entries != len(want)+1 {
			t.Fatalf("cut %d: the torn bytes outlived the append: %+v", cut, st)
		}
	}
}

// TestTailGarbageQuarantined: bytes at the end of the log that are not a
// record prefix and hold no whole record end it there: they are copied to
// quarantine/, counted once and truncated, and every record before them is
// kept.
func TestTailGarbageQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	end := s.size
	patchLog(t, dir, end, []byte("not a record\n and more"))
	r := open(t, dir, "v1")
	if got, ok := r.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("record before the garbage = %q, %v", got, ok)
	}
	if c := r.Stats().Corrupt; c != 1 {
		t.Errorf("corrupt = %d, want 1", c)
	}
	if q := quarantined(t, dir); len(q) != 1 || q[0] != fmt.Sprintf("damaged-%d.log", end) {
		t.Errorf("quarantine holds %v", q)
	}
	if fi, err := os.Stat(logFile(dir)); err != nil || fi.Size() != end {
		t.Errorf("log not truncated to %d: %v, %v", end, fi.Size(), err)
	}
}

// TestMidLogHeaderDamageResyncs: a record whose header is damaged while
// the store is closed costs that record alone. Open skips from it to the
// next whole record, copies the skipped bytes to quarantine/ and counts
// them once, serves every other record, and compacts the damage away, so
// the next Open neither meets nor counts it again.
func TestMidLogHeaderDamageResyncs(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	keys := []string{"r0", "r1", "r2", "r3", "r4"}
	for _, k := range keys {
		if err := s.Put(k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("r4"); err != nil {
		t.Fatal(err)
	}
	sp := spanOf(t, s, "r1")
	patchLog(t, dir, sp.off+5, []byte("#")) // inside the magic line
	for round, wantCorrupt := range []int64{1, 0} {
		r := open(t, dir, "v1")
		for _, k := range keys {
			got, ok := r.Get(k)
			switch k {
			case "r1", "r4":
				if ok {
					t.Errorf("round %d: %s served %q", round, k, got)
				}
			default:
				if !ok || string(got) != "payload of "+k {
					t.Errorf("round %d: %s = %q, %v", round, k, got, ok)
				}
			}
		}
		if st := r.Stats(); st.Corrupt != wantCorrupt || st.Entries != 3 {
			t.Errorf("round %d: stats %+v, want %d corrupt and 3 entries", round, st, wantCorrupt)
		}
	}
	if q := quarantined(t, dir); len(q) != 1 || q[0] != fmt.Sprintf("damaged-%d.log", sp.off) {
		t.Errorf("quarantine holds %v", q)
	}
}

func TestWalkVisitsLiveEntriesInOrder(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	want := map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := s.Put(k, []byte(want[k])); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign-version entry and a header-corrupt record must both be
	// skipped.
	if err := open(t, dir, "v0").Put("ghost", []byte("old")); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, "v1")
	patchLog(t, dir, spanOf(t, s, "d").off, []byte("not an entry"))
	delete(want, "d")
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
	// Deterministic order: key-hash order, and a repeat walk sees the
	// same sequence.
	hashOrder := slices.Clone(order)
	slices.SortFunc(hashOrder, func(a, b string) int {
		ha, hb := hashKey(a), hashKey(b)
		return bytes.Compare(ha[:], hb[:])
	})
	if !slices.Equal(order, hashOrder) {
		t.Errorf("walk order %v, want key-hash order %v", order, hashOrder)
	}
	var order2 []string
	if err := s.Walk("", func(key string, _ []byte) error {
		order2 = append(order2, key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, order2) {
		t.Errorf("walk order not deterministic: %v vs %v", order, order2)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Skipped == 0 {
		t.Errorf("walk stats = %+v: want the corrupt record quarantined once and the ghost skipped", st)
	}
}

func TestDelete(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Error("deleted key should miss")
	}
	size := s.size
	if err := s.Delete("k"); err != nil {
		t.Error("double delete should be a no-op:", err)
	}
	if s.size != size {
		t.Error("deleting an absent key appended a record")
	}
	if _, ok := open(t, dir, "v1").Get("k"); ok {
		t.Error("deleted key served after restart")
	}
}

// TestKeyFormatGolden pins the on-disk contract so compatibility breaks
// loudly: the index and quarantine name derivation (truncated SHA-256 of
// the key), the exact record encoding — which is also the older layout's
// entry-file encoding, so imported entries are copied verbatim — and the
// tombstone encoding. If this test fails, readers of existing store
// directories will miss every entry — bump the magic and write a
// migration note before shipping such a change.
func TestKeyFormatGolden(t *testing.T) {
	const key = "char|SRAM-6T|sram|350|1|TSV|0|"
	h := hashKey(key)
	if got, want := h.String(), "2010be8c306e4b754bbf6b7e0d75fe1e225f42fe"; got != want {
		t.Errorf("hashKey(%q) = %s, want %s", key, got, want)
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
	// Put appends exactly these bytes to the log, and Delete a tombstone
	// after them.
	dir := t.TempDir()
	s := open(t, dir, "vtest")
	if err := s.Put(key, []byte("hello-payload")); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(logFile(dir)); err != nil || string(raw) != wantEntry {
		t.Errorf("Put wrote %q (%v), want %q", raw, err, wantEntry)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	wantTombstone := "coldtall-store/1\n" +
		"version \"\"\n" +
		"key \"char|SRAM-6T|sram|350|1|TSV|0|\"\n" +
		"len 20\n" +
		"crc32 a63b61e3\n" +
		string(h[:])
	if raw, err := os.ReadFile(logFile(dir)); err != nil || string(raw) != wantEntry+wantTombstone {
		t.Errorf("Delete appended %q (%v), want %q", raw[len(wantEntry):], err, wantTombstone)
	}
}

// TestLegacyImport: a directory in the older file-per-entry layout is
// imported into the log on open — every entry served byte-identical under
// its key, a corrupt file quarantined and counted, the old directory gone
// — and the import is not repeated.
func TestLegacyImport(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, legacyDir)
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"char|a": "alpha", "resp|b": "beta", "job|c": "gamma"}
	for k, v := range want {
		h := hashKey(k)
		name := filepath.Join(legacy, h.String()+entryExt)
		if err := os.WriteFile(name, encodeEntry("v1", k, []byte(v)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(legacy, "junk.entry"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, "v1")
	for k, v := range want {
		if got, ok := s.Get(k); !ok || string(got) != v {
			t.Errorf("imported %s = %q, %v; want %q", k, got, ok, v)
		}
	}
	if st := s.Stats(); st.Entries != 3 || st.Corrupt != 1 {
		t.Errorf("after import stats = %+v, want 3 entries and 1 corrupt", st)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Errorf("legacy directory still present: %v", err)
	}
	if q := quarantined(t, dir); len(q) != 1 || q[0] != "junk.entry" {
		t.Errorf("quarantine holds %v, want junk.entry", q)
	}
	size := s.size
	if r := open(t, dir, "v1"); r.size != size || r.Len() != 3 {
		t.Errorf("reopen changed the log: size %d→%d, Len %d", size, r.size, r.Len())
	}
}

// TestCompactionBoundsTheLog: overwrites and deletes past the threshold
// compact the log online, so it never holds much more than its live bytes,
// and every live value survives the compaction and a restart.
func TestCompactionBoundsTheLog(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	blob := bytes.Repeat([]byte("z"), 256<<10)
	for i := 0; i < 3*compactFloor/len(blob); i++ {
		blob[0] = byte(i)
		if err := s.Put(fmt.Sprintf("hot|%d", i%3), blob); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(fmt.Sprintf("tmp|%d", i), []byte("scratch")); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(fmt.Sprintf("tmp|%d", i)); err != nil {
			t.Fatal(err)
		}
		if dead := s.size - s.live; dead > s.live && dead > compactFloor {
			t.Fatalf("after op %d: %d dead bytes against %d live were not compacted", i, dead, s.live)
		}
	}
	fi, err := os.Stat(logFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != s.size || s.size > 2*s.live+compactFloor {
		t.Errorf("log is %d bytes (store thinks %d) for %d live", fi.Size(), s.size, s.live)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	r := open(t, dir, "v1")
	for i := 0; i < 3; i++ {
		a, ok1 := s.Get(fmt.Sprintf("hot|%d", i))
		b, ok2 := r.Get(fmt.Sprintf("hot|%d", i))
		if !ok1 || !ok2 || !bytes.Equal(a, b) || len(a) != len(blob) {
			t.Errorf("hot|%d differs across compaction and restart", i)
		}
	}
}

// TestWalkPrefix: a prefixed walk visits exactly the keys under the
// prefix in key-hash order, quarantines header-corrupt entries, and
// leaves a payload-corrupt entry under another prefix for the Get that
// reads it to quarantine.
func TestWalkPrefix(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	for _, k := range []string{"job|a", "job|b", "job|c", "jobcell|x", "resp|y", "jo", "resp|bad", "junk"} {
		if err := s.Put(k, []byte("val-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// Payload corruption under another prefix: a flipped payload byte
	// keeps the header parseable but breaks the CRC.
	bad := spanOf(t, s, "resp|bad")
	flipByte(t, dir, bad.off+bad.n-1, 0xff)
	// Header corruption: no parseable header at all.
	patchLog(t, dir, spanOf(t, s, "junk").off, []byte("not an entry"))
	badName := hashKey("resp|bad").String() + entryExt
	junkName := hashKey("junk").String() + entryExt

	want := []string{"job|a", "job|b", "job|c"}
	slices.SortFunc(want, func(a, b string) int {
		ha, hb := hashKey(a), hashKey(b)
		return bytes.Compare(ha[:], hb[:])
	})
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
	if !slices.Equal(got, want) {
		t.Errorf("Walk(job|) visited %v, want %v", got, want)
	}
	if q := quarantined(t, dir); !slices.Equal(q, []string{junkName}) {
		t.Errorf("after walk quarantine holds %v, want only the header-corrupt record %s", q, junkName)
	}
	if c := s.Stats().Corrupt; c != 1 {
		t.Errorf("corrupt count after walk = %d, want 1 (the junk header only)", c)
	}
	if _, ok := s.Get("resp|bad"); ok {
		t.Fatal("payload-corrupt entry served")
	}
	if q := quarantined(t, dir); !slices.Contains(q, badName) {
		t.Errorf("Get did not quarantine the payload-corrupt entry: %v", q)
	}
	if c := s.Stats().Corrupt; c != 2 {
		t.Errorf("corrupt count after Get = %d, want 2", c)
	}
	if got, ok := s.Get("resp|y"); !ok || string(got) != "val-resp|y" {
		t.Errorf("neighbouring entry after quarantines = %q, %v", got, ok)
	}
}

// TestConcurrentPutGet races writers and readers over a small keyspace
// while compactions and walks run; under -race this pins the store's
// concurrency safety, and every read must see a value some Put wrote.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // online compaction in flight throughout
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			err := s.compact()
			s.mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Walk("k-", func(key string, v []byte) error {
				if string(v) != key {
					t.Errorf("Walk %s = %q", key, v)
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k-%d", i%7)
				switch {
				case g%2 == 0 && i%5 == 4:
					if err := s.Delete(key); err != nil {
						t.Error(err)
						return
					}
				case g%2 == 0:
					if err := s.Put(key, []byte(key)); err != nil {
						t.Error(err)
						return
					}
				default:
					if v, ok := s.Get(key); ok && string(v) != key {
						t.Errorf("Get(%s) = %q", key, v)
						return
					}
				}
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	wg.Wait()
	if c := s.Stats().Corrupt; c != 0 {
		t.Errorf("concurrent use produced %d corrupt records", c)
	}
}
