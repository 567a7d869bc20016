// Package store is the persistence layer under the serving stack: a
// disk-backed, content-addressed result store that survives process
// restarts. Entries are keyed by caller-canonicalized strings (the same
// canonical PointSpec-derived keys the in-memory caches use) and stamped
// with a model version, so results computed under stale physics are
// invalidated by bumping the version rather than by deleting files.
//
// Layout: one append-only log file (store.log) plus an in-memory index.
//
//   - Every Put appends one record: a line-oriented header (magic, quoted
//     version, quoted key, payload length, payload CRC-32) followed by the
//     raw payload bytes. Delete appends a tombstone in the same framing: an
//     empty version, and the 20-byte key hash as its payload.
//   - The index maps the SHA-256 of a key, truncated to 160 bits (far
//     beyond collision reach for this keyspace), to the offset and length
//     of the key's newest record. It holds no key strings. A Get miss is an
//     index lookup; a Get hit is one positioned read plus the header and
//     CRC checks; Walk visits the index in key-hash order.
//   - Open scans the log once to rebuild the index. A store directory in
//     the older file-per-entry layout (entries/<hash>.entry) is imported
//     into the log on first open, verbatim, and the directory is removed.
//   - Superseded records and tombstones are dead bytes. Once they exceed
//     both the live bytes and a fixed floor, the log is compacted: the live
//     records are copied in log order into a new file that is renamed over
//     the old one. Open, Put, Delete and quarantine all check the trigger,
//     so a long-running server's log stays within about twice its live
//     data.
//
// Durability model (process crash only):
//
//   - A record is appended with one write (header and payload separately
//     only for records over 64 KiB). A process killed mid-append leaves a
//     torn tail: a prefix of one record. Open truncates it, so a restart
//     never observes a half-written entry and every earlier record
//     survives.
//   - Put never fsyncs, so the guarantee stops at the process: a power
//     loss or kernel crash can drop recently appended records (an accepted
//     job record among them) or leave bytes damaged. The CRC and the
//     quarantine below still keep any such record from being served; it
//     reads as a miss.
//   - Reads verify a CRC over the payload. A record that fails to decode
//     is copied into a quarantine subdirectory, tombstoned, counted once in
//     Stats.Corrupt and reported as a miss, and the log is compacted
//     without it — corruption can cost a recomputation, never a panic or a
//     poisoned cache. Where Open's scan meets a header it cannot parse,
//     it skips to the next whole record whose CRC checks, copies the
//     skipped bytes to quarantine/, counts them once and compacts them
//     away; with no whole record after them, the log is truncated there.
//   - Entries carrying a different model-version stamp are skipped (and
//     superseded by the next Put of the same key), which is how a physics
//     change invalidates the whole store without a migration.
//
// The store is safe for concurrent use within one process; one Store at a
// time may own a directory. Standard library only.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// magic is the first header line of every record; bump the trailing
// format number when the encoding changes shape.
const magic = "coldtall-store/1"

// The store directory's contents.
const (
	logName       = "store.log"
	compactName   = "store.log.compact" // a compaction in progress
	quarantineDir = "quarantine"
	// legacyDir holds the older file-per-entry layout, one
	// <hash>.entry file per key, imported into the log by Open.
	legacyDir = "entries"
	entryExt  = ".entry"
)

// compactFloor is the dead-byte count below which the log is never
// compacted, whatever its live size: rewriting a small log saves nothing.
const compactFloor = 8 << 20

// oneWriteMax is the largest record Put frames in its reusable buffer and
// appends with one write; a larger record is written as header, then
// payload, so the buffer never grows to a trace-sized payload.
const oneWriteMax = 64 << 10

// Options configures Open.
type Options struct {
	// Version is the model-version stamp written into every entry and
	// required of every entry read back. Entries carrying a different
	// version are skipped, which is how stale physics is invalidated.
	// Required.
	Version string
}

// Stats is a point-in-time view of store traffic.
type Stats struct {
	// Hits and Misses count Get lookups (a version-skewed or corrupt
	// entry counts as a miss).
	Hits, Misses int64
	// Puts counts successful writes.
	Puts int64
	// Corrupt counts records that failed to decode and were quarantined.
	Corrupt int64
	// Skipped counts entries ignored for carrying a different model
	// version.
	Skipped int64
	// Entries is the current number of live entries (all versions).
	Entries int
}

// keyHash is the index key: the first 160 bits of the key's SHA-256.
type keyHash [20]byte

func hashKey(key string) keyHash {
	sum := sha256.Sum256([]byte(key))
	return keyHash(sum[:20])
}

// String is the hash in hex: the name of the key's quarantine file.
func (k keyHash) String() string { return hex.EncodeToString(k[:]) }

// span locates one record in the log.
type span struct{ off, n int64 }

// Store is a disk-backed key-value store of result blobs. Construct with
// Open; safe for concurrent use.
type Store struct {
	dir     string
	version string

	// mu guards the log handle, its size, the index and buf. Reads of the
	// log hold it shared, so a compaction never swaps the file under them.
	mu    sync.RWMutex
	log   *os.File
	size  int64 // end of the log, where the next record goes
	live  int64 // bytes of the records the index points at
	index *index
	buf   []byte // Put's framing buffer

	hits, misses, puts, corrupt, skipped atomic.Int64
}

// Open creates (or reopens) a store rooted at dir: it creates the
// directory, its log and quarantine subdirectory if missing, scans the log
// into the index (truncating a torn tail), imports a file-per-entry
// directory left by the older layout, and compacts the log if dead bytes
// outweigh live ones.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: directory must not be empty")
	}
	if opts.Version == "" {
		return nil, fmt.Errorf("store: a model version stamp is required")
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// A compaction the previous process did not finish; the log it was
	// replacing is still whole.
	if err := os.Remove(filepath.Join(dir, compactName)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, version: opts.Version, log: f, index: new(index)}
	damaged, err := s.load()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if err := s.importLegacy(); err != nil {
		s.log.Close()
		return nil, fmt.Errorf("store: import %s: %w", dir, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// On failure the old log stays whole; the next write retries.
	if damaged {
		_ = s.compact()
	} else {
		_ = s.maybeCompact()
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// appendHeader appends a record header to b: magic, quoted version,
// quoted key, payload length and payload CRC-32, one per line.
func appendHeader(b []byte, version, key string, val []byte) []byte {
	b = append(b, magic+"\nversion "...)
	b = strconv.AppendQuote(b, version)
	b = append(b, "\nkey "...)
	b = strconv.AppendQuote(b, key)
	b = append(b, "\nlen "...)
	b = strconv.AppendInt(b, int64(len(val)), 10)
	b = append(b, "\ncrc32 "...)
	const digits = "0123456789abcdef"
	crc := crc32.ChecksumIEEE(val)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[crc>>uint(shift)&0xf])
	}
	return append(b, '\n')
}

var (
	// errCorrupt marks a record that failed structural or checksum
	// validation.
	errCorrupt = errors.New("store: corrupt entry")
	// errTorn marks a header cut short by the end of its input: at the
	// tail of the log, the trace of an append a crash interrupted.
	errTorn = errors.New("store: torn entry")
)

// entryHeader is a parsed record header.
type entryHeader struct {
	version, key string
	n            int    // payload length
	crc          uint32 // payload CRC-32
}

// tombstone reports whether h heads a tombstone rather than an entry: no
// Put carries an empty version.
func (h entryHeader) tombstone() bool { return h.version == "" }

// readHeader parses a record header from r, leaving r at the first
// payload byte. Input ending inside the header returns errTorn; any other
// structural defect — bad quoting, a malformed length or CRC field —
// returns errCorrupt; a read error is returned as is.
func readHeader(r *bufio.Reader) (h entryHeader, err error) {
	line := func() (string, error) {
		l, err := r.ReadString('\n')
		if err == io.EOF {
			return "", errTorn
		}
		if err != nil {
			return "", err
		}
		return strings.TrimSuffix(l, "\n"), nil
	}
	first, err := line()
	if err != nil {
		return h, err
	}
	if first != magic {
		return h, errCorrupt
	}
	field := func(name string) (string, error) {
		l, err := line()
		if err != nil {
			return "", err
		}
		rest, ok := strings.CutPrefix(l, name+" ")
		if !ok {
			return "", errCorrupt
		}
		return rest, nil
	}
	// The decoder is strict: every field must carry the one canonical
	// spelling appendHeader produces (no alternate escapes, no leading
	// zeros), so decode∘encode is a fixed point — the property the fuzz
	// harness pins.
	quoted := func(name string) (string, error) {
		raw, err := field(name)
		if err != nil {
			return "", err
		}
		v, err := strconv.Unquote(raw)
		if err != nil || strconv.Quote(v) != raw {
			return "", errCorrupt
		}
		return v, nil
	}
	if h.version, err = quoted("version"); err != nil {
		return h, err
	}
	if h.key, err = quoted("key"); err != nil {
		return h, err
	}
	lenField, err := field("len")
	if err != nil {
		return h, err
	}
	h.n, err = strconv.Atoi(lenField)
	if err != nil || h.n < 0 || strconv.Itoa(h.n) != lenField {
		return h, errCorrupt
	}
	crcField, err := field("crc32")
	if err != nil {
		return h, err
	}
	crc, err := strconv.ParseUint(crcField, 16, 32)
	if err != nil || fmt.Sprintf("%08x", crc) != crcField {
		return h, errCorrupt
	}
	h.crc = uint32(crc)
	return h, nil
}

// readPayload reads the h.n payload bytes that follow the header and
// verifies them: a length beyond size (the whole record's byte count, so
// a corrupt length never sizes an allocation), a short payload, trailing
// garbage or a CRC mismatch returns errCorrupt; a read error is returned
// as is.
func readPayload(r *bufio.Reader, h entryHeader, size int64) ([]byte, error) {
	if int64(h.n) > size {
		return nil, errCorrupt
	}
	val := make([]byte, h.n)
	if _, err := io.ReadFull(r, val); err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, errCorrupt
	} else if err != nil {
		return nil, err
	}
	switch _, err := r.ReadByte(); {
	case err == nil:
		return nil, errCorrupt // trailing garbage
	case err != io.EOF:
		return nil, err
	}
	if crc32.ChecksumIEEE(val) != h.crc {
		return nil, errCorrupt
	}
	return val, nil
}

// decodeEntry parses one encoded record, returning its version stamp, key
// and payload, or errCorrupt for any structural defect.
func decodeEntry(raw []byte) (version, key string, val []byte, err error) {
	r := bufio.NewReader(bytes.NewReader(raw))
	h, err := readHeader(r)
	if err == errTorn {
		err = errCorrupt
	}
	if err != nil {
		return "", "", nil, err
	}
	if val, err = readPayload(r, h, int64(len(raw))); err != nil {
		return "", "", nil, err
	}
	return h.version, h.key, val, nil
}

// load scans the log from the start into the index. A torn tail — input
// ending inside a record, what an interrupted append leaves — is
// truncated. Bytes where a header does not parse are copied to quarantine/
// and counted as one corrupt record, up to the next whole record whose
// CRC checks (resync), where the scan goes on; with none, the log is
// truncated there. load reports whether it skipped damaged bytes, so Open
// can compact them away before the next Open meets them again.
func (s *Store) load() (damaged bool, err error) {
	fi, err := s.log.Stat()
	if err != nil {
		return false, err
	}
	size := fi.Size()
	sr := io.NewSectionReader(s.log, 0, size)
	r := bufio.NewReaderSize(sr, 64<<10)
	for off := int64(0); off < size; {
		end, err := s.loadRecord(r, sr, off, size)
		switch {
		case err == errTorn:
			return damaged, s.log.Truncate(off)
		case err == errCorrupt:
			next := s.resync(off, size)
			s.quarantineRange(off, next)
			damaged = true
			if next == size {
				return damaged, s.log.Truncate(off)
			}
			if _, err := sr.Seek(next, io.SeekStart); err != nil {
				return damaged, err
			}
			r.Reset(sr)
			end = next
		case err != nil:
			return damaged, err
		}
		off = end
	}
	return damaged, nil
}

// resync returns the offset of the first whole record after off whose
// payload CRC checks, or size if there is none.
func (s *Store) resync(off, size int64) int64 {
	needle := []byte(magic + "\nversion ")
	buf := make([]byte, 64<<10)
	for pos := off + 1; pos < size; pos += int64(len(buf) - len(needle)) {
		n, _ := s.log.ReadAt(buf, pos)
		for i := 0; ; i++ {
			j := bytes.Index(buf[i:n], needle)
			if j < 0 {
				break
			}
			i += j
			if s.wholeRecordAt(pos+int64(i), size) {
				return pos + int64(i)
			}
		}
		if pos+int64(n) >= size {
			break
		}
	}
	return size
}

// wholeRecordAt reports whether a record with a canonical header and a
// payload matching its CRC starts at off and ends by size.
func (s *Store) wholeRecordAt(off, size int64) bool {
	sr := io.NewSectionReader(s.log, off, size-off)
	r := bufio.NewReader(sr)
	h, err := readHeader(r)
	if err != nil {
		return false
	}
	pos, _ := sr.Seek(0, io.SeekCurrent)
	if int64(h.n) > size-off-(pos-int64(r.Buffered())) {
		return false
	}
	sum := crc32.NewIEEE()
	if _, err := io.CopyN(sum, r, int64(h.n)); err != nil {
		return false
	}
	return sum.Sum32() == h.crc
}

// loadRecord applies the record at off to the index and returns where it
// ends. Only a tombstone's payload is read: it names the key it removes.
func (s *Store) loadRecord(r *bufio.Reader, sr *io.SectionReader, off, size int64) (int64, error) {
	h, err := readHeader(r)
	if err != nil {
		return 0, err
	}
	pos, _ := sr.Seek(0, io.SeekCurrent)
	pos -= int64(r.Buffered())
	if int64(h.n) > size-pos {
		return 0, errTorn // the payload runs past the end
	}
	end := pos + int64(h.n)
	if !h.tombstone() {
		if _, err := r.Discard(h.n); err != nil {
			return 0, err
		}
		s.record(hashKey(h.key), span{off, end - off}, false)
		return end, nil
	}
	var k keyHash
	if h.n != len(k) {
		return 0, errCorrupt
	}
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return 0, err
	}
	if crc32.ChecksumIEEE(k[:]) != h.crc {
		return 0, errCorrupt
	}
	s.record(k, span{off, end - off}, true)
	return end, nil
}

// quarantineRange copies the log's bytes [off, end) into quarantine/ and
// counts them as one corrupt record. The copy, like quarantine's, is for
// forensics only, so its errors are dropped.
func (s *Store) quarantineRange(off, end int64) {
	s.corrupt.Add(1)
	dst, err := os.Create(filepath.Join(s.dir, quarantineDir, fmt.Sprintf("damaged-%d.log", off)))
	if err != nil {
		return
	}
	defer dst.Close()
	_, _ = io.Copy(dst, io.NewSectionReader(s.log, off, end-off))
}

// importLegacy moves a file-per-entry directory into the log: every entry
// file that decodes is appended verbatim, in file-name order, every one
// that does not is quarantined, and the directory is removed. A crash
// part-way re-imports the same bytes on the next Open, which supersede the
// first copies.
func (s *Store) importLegacy() error {
	dir := filepath.Join(s.dir, legacyDir)
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range ents {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), entryExt) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		version, key, _, err := decodeEntry(raw)
		if err != nil || version == "" {
			s.corrupt.Add(1)
			if err := os.Rename(path, filepath.Join(s.dir, quarantineDir, e.Name())); err != nil {
				return err
			}
			continue
		}
		if err := s.write(hashKey(key), false, raw); err != nil {
			return err
		}
	}
	return os.RemoveAll(dir)
}

// write appends parts, together one framed record, at the end of the log
// and points the index at it (or, for a tombstone, drops k from the
// index). A failed write is truncated away, leaving the log and the index
// as they were. The caller holds mu.
func (s *Store) write(k keyHash, tombstone bool, parts ...[]byte) error {
	off, n := s.size, int64(0)
	for _, p := range parts {
		if _, err := s.log.WriteAt(p, off+n); err != nil {
			_ = s.log.Truncate(off)
			return err
		}
		n += int64(len(p))
	}
	s.record(k, span{off, n}, tombstone)
	return nil
}

// record applies an appended record at sp to the index and the byte
// counts. The caller holds mu.
func (s *Store) record(k keyHash, sp span, tombstone bool) {
	var old span
	var had bool
	if tombstone {
		old, had = s.index.remove(k)
	} else {
		old, had = s.index.put(k, sp)
		s.live += sp.n
	}
	if had {
		s.live -= old.n
	}
	s.size = sp.off + sp.n
}

// append frames and writes one record for key under version (a tombstone
// when version is empty). The caller holds mu.
func (s *Store) append(k keyHash, version, key string, val []byte) error {
	hdr := appendHeader(s.buf[:0], version, key, val)
	if int64(len(hdr))+int64(len(val)) > maxRecord {
		return fmt.Errorf("a %d-byte payload is over the record limit", len(val))
	}
	if len(hdr)+len(val) <= oneWriteMax {
		rec := append(hdr, val...)
		s.buf = rec[:0]
		return s.write(k, version == "", rec)
	}
	s.buf = hdr[:0]
	return s.write(k, version == "", hdr, val)
}

// Put writes (or overwrites) key: one record appended to the log, then
// the index updated, under the store's lock. Concurrent readers see either
// the old entry or the new one, and a process killed mid-append leaves a
// torn tail that the next Open truncates, never a half-visible entry.
func (s *Store) Put(key string, val []byte) error {
	k := hashKey(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(k, s.version, key, val); err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	s.puts.Add(1)
	_ = s.maybeCompact() // on failure the old log stays; the next write retries
	return nil
}

// Get returns the stored payload for key. Missing entries, entries under
// a different model version, and corrupt entries (quarantined as a side
// effect) all report a miss — the store never surfaces a value it cannot
// vouch for.
func (s *Store) Get(key string) ([]byte, bool) {
	k := hashKey(key)
	s.mu.RLock()
	sp, ok := s.index.get(k)
	if !ok {
		s.mu.RUnlock()
		s.misses.Add(1)
		return nil, false
	}
	raw := make([]byte, sp.n)
	_, err := s.log.ReadAt(raw, sp.off)
	s.mu.RUnlock()
	if err != nil {
		s.misses.Add(1) // unreadable right now; not evidence of corruption
		return nil, false
	}
	version, gotKey, val, err := decodeEntry(raw)
	switch {
	case err != nil:
		s.quarantine(k, sp)
	case version != s.version:
		s.skipped.Add(1)
	case gotKey != key:
		// A truncated-hash collision; treat as absent rather than
		// serving another key's result.
	default:
		s.hits.Add(1)
		return val, true
	}
	s.misses.Add(1)
	return nil, false
}

// Delete removes key's entry by appending a tombstone; deleting an absent
// key is a no-op.
func (s *Store) Delete(key string) error {
	k := hashKey(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index.get(k); !ok {
		return nil
	}
	if err := s.append(k, "", key, k[:]); err != nil {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	_ = s.maybeCompact() // on failure the old log stays; the next write retries
	return nil
}

// quarantine copies the corrupt record at sp into quarantine/ (named by
// its key hash) for forensics, then tombstones it so it is never re-read
// and never poisons a cache. Counted once in Stats.Corrupt: a reader that
// lost the race to a concurrent quarantine or Put of the same key finds
// the index moved on and does nothing. The caller holds no lock.
func (s *Store) quarantine(k keyHash, sp span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.index.get(k); !ok || cur != sp {
		return
	}
	s.corrupt.Add(1)
	// The copy is for forensics only; failing to make it changes nothing
	// a caller sees.
	raw := make([]byte, sp.n)
	if _, err := s.log.ReadAt(raw, sp.off); err == nil {
		_ = os.WriteFile(filepath.Join(s.dir, quarantineDir, k.String()+entryExt), raw, 0o644)
	}
	if err := s.append(k, "", "", k[:]); err != nil {
		// The record stays indexed; at worst the next read quarantines
		// it again.
		return
	}
	// Rewrite the log without it: a damaged header would otherwise end
	// the next Open's scan there. A failed compaction is retried by the
	// next write that crosses the threshold.
	_ = s.compact()
}

// Walk calls fn for every live same-version entry whose key starts with
// prefix ("" walks everything), in deterministic (key-hash) order. Every
// entry's header is parsed, but only entries under prefix have their
// payload read and checked. Header-corrupt entries, and payload-corrupt
// entries under prefix, are quarantined and skipped; a payload-corrupt
// entry under another prefix is left for the Get that reads it. Entries
// under other model versions are skipped. fn runs without the store's
// lock held, so it may call Put and Delete; an entry deleted before the
// walk reaches it is not visited. A non-nil error from fn stops the walk
// and is returned.
func (s *Store) Walk(prefix string, fn func(key string, val []byte) error) error {
	s.mu.RLock()
	entries := s.index.sorted()
	s.mu.RUnlock()
	r := bufio.NewReader(nil)
	for _, e := range entries {
		h, val, sp, err := s.readUnder(e.k, prefix, r)
		switch {
		case err == errGone:
			continue
		case err == errCorrupt || err == errTorn:
			s.quarantine(e.k, sp)
			continue
		case err != nil:
			continue // unreadable right now; not evidence of corruption
		case !strings.HasPrefix(h.key, prefix):
			continue
		case h.version != s.version:
			s.skipped.Add(1)
			continue
		}
		if err := fn(h.key, val); err != nil {
			return err
		}
	}
	return nil
}

// errGone reports an entry removed since a walk listed it.
var errGone = errors.New("store: entry gone")

// readUnder reads k's record header and, when its key is under prefix, its
// checked payload, holding the lock for the read only.
func (s *Store) readUnder(k keyHash, prefix string, r *bufio.Reader) (h entryHeader, val []byte, sp span, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sp, ok := s.index.get(k)
	if !ok {
		return h, nil, sp, errGone
	}
	r.Reset(io.NewSectionReader(s.log, sp.off, sp.n))
	if h, err = readHeader(r); err == nil && strings.HasPrefix(h.key, prefix) {
		val, err = readPayload(r, h, sp.n)
	}
	return h, val, sp, err
}

// maybeCompact compacts the log when its dead bytes exceed both its live
// bytes and compactFloor. The caller holds mu.
func (s *Store) maybeCompact() error {
	if dead := s.size - s.live; dead <= s.live || dead <= compactFloor {
		return nil
	}
	return s.compact()
}

// compact copies the live records, in log order and byte for byte, into a
// new file, renames it over the log and re-points the index. A crash
// before the rename leaves the old log whole (Open deletes the partial
// copy); after it, the new one. The caller holds mu.
func (s *Store) compact() error {
	ents := s.index.sorted()
	byOffset(ents)
	path := filepath.Join(s.dir, compactName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(path)
		return err
	}
	// Copy each run of adjacent live records with one call; the kernel
	// moves the bytes (copy_file_range) when it can.
	for i := 0; i < len(ents); {
		start, end := ents[i].off, ents[i].off+int64(ents[i].n)
		for i++; i < len(ents) && ents[i].off == end; i++ {
			end += int64(ents[i].n)
		}
		if _, err := s.log.Seek(start, io.SeekStart); err != nil {
			return fail(err)
		}
		if _, err := f.ReadFrom(&io.LimitedReader{R: s.log, N: end - start}); err != nil {
			return fail(err)
		}
	}
	if err := os.Rename(path, filepath.Join(s.dir, logName)); err != nil {
		return fail(err)
	}
	s.log.Close()
	s.log = f
	var off int64
	for i := range ents {
		ents[i].off = off
		off += int64(ents[i].n)
	}
	s.index.relocate(ents)
	s.size, s.live = off, off
	return nil
}

// Len counts live entries (all versions).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.len()
}

// Stats returns a snapshot of the traffic counters plus the live entry
// count.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Puts:    s.puts.Load(),
		Corrupt: s.corrupt.Load(),
		Skipped: s.skipped.Load(),
		Entries: s.Len(),
	}
}
