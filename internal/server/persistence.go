package server

import (
	"bytes"
	"encoding/gob"
	"strings"

	"coldtall/internal/array"
	"coldtall/internal/store"
)

// Store key namespaces: the one disk store backs several in-memory layers,
// and prefixes keep their keyspaces disjoint (the job subsystem claims
// "job|", "jobresult|" and "jobcell|" in internal/job).
const (
	// respPrefix namespaces persisted HTTP response bodies (the response
	// cache's tier).
	respPrefix = "resp|"
	// charPrefix namespaces persisted array characterizations (the
	// explorer's persistence hook). The store golden test pins this
	// prefix — changing it orphans every persisted characterization.
	charPrefix = "char|"
)

// respTier adapts the store to the response cache's Tier interface:
// response bodies are stored raw under the resp| namespace, so an entry
// evicted from the LRU — or lost to a restart — is one disk read away
// instead of a recomputation.
type respTier struct{ st *store.Store }

func (t respTier) Load(key string) ([]byte, bool) { return t.st.Get(respPrefix + key) }

func (t respTier) Store(key string, v []byte) {
	// Best-effort by the Tier contract: a failed write costs a future
	// recomputation, nothing else.
	_ = t.st.Put(respPrefix+key, v)
}

// charStore adapts the store to the explorer's ResultStore hook:
// characterizations are gob-encoded (JSON cannot carry the +Inf retention
// of static cells) under char| + the canonical design-point key, stamped
// with explorer.ModelVersion by the store itself.
type charStore struct{ st *store.Store }

func (c charStore) Load(key string) (array.Result, bool) {
	raw, ok := c.st.Get(charPrefix + key)
	if !ok {
		return array.Result{}, false
	}
	var r array.Result
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&r); err != nil {
		return array.Result{}, false
	}
	return r, true
}

func (c charStore) Save(key string, r array.Result) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(r); err != nil {
		return
	}
	_ = c.st.Put(charPrefix+key, b.Bytes())
}

// warmCache replays persisted response bodies into the LRU at boot (Seed:
// no write-back into the store they just came from), so the first request
// after a restart is a microsecond cache hit instead of a cold sweep. The
// walk is bounded by the store's contents; entries beyond the LRU capacity
// simply evict oldest-first and remain reachable through the tier.
func warmCache(st *store.Store, c interface{ Seed(string, []byte) }) int {
	n := 0
	_ = st.Walk(respPrefix, func(key string, val []byte) error {
		c.Seed(strings.TrimPrefix(key, respPrefix), val)
		n++
		return nil
	})
	return n
}
