package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"coldtall/internal/store"
)

// Chunked-upload store namespaces. Chunk bytes are content-addressed
// ("chunk|<sha256>"), so retransmitted chunks and chunks shared between
// uploads are stored once; the per-upload manifest ("upload|<name>") is
// the ordered list of chunk addresses plus the byte offset reached.
const (
	ChunkKeyPrefix  = "chunk|"
	UploadKeyPrefix = "upload|"
)

// MaxChunkBytes bounds one append; MaxUploadBytes bounds the assembled
// trace (a generous multiple of the binary encoding of MaxAccesses).
const (
	MaxChunkBytes  = 4 << 20
	MaxUploadBytes = 256 << 20
)

// uploadManifest is the persisted record of one in-flight upload.
type uploadManifest struct {
	// Name is the workload name the upload is destined for.
	Name string `json:"name"`
	// Size is the total bytes appended so far — the resume offset.
	Size int64 `json:"size"`
	// Chunks lists the content addresses in append order; Sizes the
	// corresponding byte counts.
	Chunks []string `json:"chunks"`
	Sizes  []int64  `json:"sizes"`
}

// OffsetError reports an append at the wrong offset. The current offset
// it carries is what a resuming client needs to continue.
type OffsetError struct {
	Name string
	Want int64
	Got  int64
}

func (e *OffsetError) Error() string {
	return fmt.Sprintf("ingest: upload %q is at offset %d, not %d (resume from %d)", e.Name, e.Want, e.Got, e.Want)
}

// Uploads manages resumable chunked trace uploads. Every accepted chunk
// is persisted — bytes content-addressed, manifest updated — before the
// append returns, so a killed client (or server) resumes from the last
// acknowledged offset with no lost or duplicated bytes. It is safe for
// concurrent use; appends to the same name are serialized.
type Uploads struct {
	mu sync.Mutex
	st *store.Store
}

// NewUploads returns an upload manager over the store (required).
func NewUploads(st *store.Store) *Uploads {
	return &Uploads{st: st}
}

// load reads a manifest; absent manifests start empty.
func (u *Uploads) load(name string) (uploadManifest, error) {
	raw, ok := u.st.Get(UploadKeyPrefix + name)
	if !ok {
		return uploadManifest{Name: name}, nil
	}
	var m uploadManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("ingest: upload manifest for %q is corrupt: %w", name, err)
	}
	return m, nil
}

func (u *Uploads) save(m uploadManifest) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return u.st.Put(UploadKeyPrefix+m.Name, raw)
}

// Append adds data at the given offset. The offset must equal the bytes
// accepted so far — anything else returns an *OffsetError carrying the
// current offset, which is also how a resuming client discovers where to
// continue (Offset is the read-only variant). Empty appends are rejected.
func (u *Uploads) Append(name string, offset int64, data []byte) (newOffset int64, err error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("ingest: empty chunk")
	}
	if len(data) > MaxChunkBytes {
		return 0, fmt.Errorf("ingest: chunk of %d bytes exceeds the %d-byte cap", len(data), MaxChunkBytes)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	m, err := u.load(name)
	if err != nil {
		return 0, err
	}
	if offset != m.Size {
		return m.Size, &OffsetError{Name: name, Want: m.Size, Got: offset}
	}
	if m.Size+int64(len(data)) > MaxUploadBytes {
		return m.Size, fmt.Errorf("ingest: upload %q would exceed the %d-byte cap", name, int64(MaxUploadBytes))
	}
	sum := sha256.Sum256(data)
	sha := hex.EncodeToString(sum[:])
	// Chunk bytes first, manifest second: a crash between the two writes
	// leaves an orphaned (content-addressed, harmless) chunk, never a
	// manifest pointing at missing bytes.
	if err := u.st.Put(ChunkKeyPrefix+sha, data); err != nil {
		return m.Size, err
	}
	m.Chunks = append(m.Chunks, sha)
	m.Sizes = append(m.Sizes, int64(len(data)))
	m.Size += int64(len(data))
	if err := u.save(m); err != nil {
		return 0, err
	}
	return m.Size, nil
}

// Offset reports the bytes accepted so far for an upload (0 for names
// never appended to).
func (u *Uploads) Offset(name string) (int64, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	m, err := u.load(name)
	if err != nil {
		return 0, err
	}
	return m.Size, nil
}

// Assemble concatenates the uploaded chunks into the trace payload. The
// upload record stays in place until Discard — assembly is read-only, so
// a crash mid-ingestion never loses the upload.
func (u *Uploads) Assemble(name string) ([]byte, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	m, err := u.load(name)
	if err != nil {
		return nil, err
	}
	if m.Size == 0 {
		return nil, fmt.Errorf("ingest: upload %q has no chunks", name)
	}
	out := make([]byte, 0, m.Size)
	for i, sha := range m.Chunks {
		data, ok := u.st.Get(ChunkKeyPrefix + sha)
		if !ok {
			return nil, fmt.Errorf("ingest: upload %q chunk %d (%s) missing from the store", name, i, sha[:12])
		}
		if int64(len(data)) != m.Sizes[i] {
			return nil, fmt.Errorf("ingest: upload %q chunk %d is %d bytes, manifest says %d", name, i, len(data), m.Sizes[i])
		}
		out = append(out, data...)
	}
	return out, nil
}

// Discard drops an upload: the manifest always, the chunk bytes only when
// no other in-flight upload references them (content-addressed chunks can
// be shared). Unknown names are a no-op.
func (u *Uploads) Discard(name string) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	m, err := u.load(name)
	if err != nil {
		// A corrupt manifest is still discardable.
		return u.st.Delete(UploadKeyPrefix + name)
	}
	if len(m.Chunks) == 0 {
		return u.st.Delete(UploadKeyPrefix + name)
	}
	shared := make(map[string]bool)
	err = u.st.Walk(UploadKeyPrefix, func(key string, val []byte) error {
		if key == UploadKeyPrefix+name {
			return nil
		}
		var other uploadManifest
		if json.Unmarshal(val, &other) != nil {
			return nil
		}
		for _, sha := range other.Chunks {
			shared[sha] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := u.st.Delete(UploadKeyPrefix + name); err != nil {
		return err
	}
	for _, sha := range dedupStrings(m.Chunks) {
		if shared[sha] {
			continue
		}
		if err := u.st.Delete(ChunkKeyPrefix + sha); err != nil {
			return err
		}
	}
	return nil
}

// dedupStrings returns the unique values preserving first-seen order.
func dedupStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
