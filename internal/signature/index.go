package signature

import (
	"sort"
	"sync"
)

// Index is the in-memory signature catalog keyed by workload name — the
// comparison set near-duplicate detection scans at ingest time. It is
// safe for concurrent use. Persistence lives with the ingest layer (the
// sig| store namespace); the index is rebuilt from the store on boot.
type Index struct {
	mu     sync.RWMutex
	byName map[string]Signature
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{byName: make(map[string]Signature)}
}

// Add records (or overwrites) a name's signature.
func (x *Index) Add(name string, s Signature) {
	x.mu.Lock()
	x.byName[name] = s
	x.mu.Unlock()
}

// Get looks a name up.
func (x *Index) Get(name string) (Signature, bool) {
	x.mu.RLock()
	s, ok := x.byName[name]
	x.mu.RUnlock()
	return s, ok
}

// Remove drops a name.
func (x *Index) Remove(name string) {
	x.mu.Lock()
	delete(x.byName, name)
	x.mu.Unlock()
}

// Match is one ranked comparison result.
type Match struct {
	// Name is the compared workload.
	Name string `json:"name"`
	// Distance is the normalized signature distance (see Distance).
	Distance float64 `json:"distance"`
}

// Rank compares s against every indexed signature except the skipped
// names and returns matches ordered by ascending distance (ties broken
// by name, so the ranking is deterministic).
func (x *Index) Rank(s Signature, skip func(name string) bool) []Match {
	x.mu.RLock()
	out := make([]Match, 0, len(x.byName))
	for name, other := range x.byName {
		if skip != nil && skip(name) {
			continue
		}
		out = append(out, Match{Name: name, Distance: Distance(s, other)})
	}
	x.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Nearest returns the closest indexed signature to s, skipping names the
// filter rejects.
func (x *Index) Nearest(s Signature, skip func(name string) bool) (Match, bool) {
	ranked := x.Rank(s, skip)
	if len(ranked) == 0 {
		return Match{}, false
	}
	return ranked[0], true
}
