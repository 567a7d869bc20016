package parallel

import "sync"

// Memo is a bounded, concurrency-safe memo table: two generations of at
// most size entries each. Puts land in the young generation; when it is
// full it becomes the old generation and the previous old one is dropped
// whole. A hit in the old generation is promoted back into the young one,
// so an entry that keeps being read survives any number of rotations while
// one that is never read again ages out after two. The table therefore
// never holds more than 2*size entries, whatever the key stream — the
// property that lets it sit behind request-supplied keys (arbitrary float
// temperatures, never-seen design points) in a long-lived server.
//
// Like Flight, it deduplicates nothing in flight: two concurrent misses of
// one key both compute and both Put. Callers memoize pure functions, so
// the racing values are identical and the second Put is harmless.
type Memo[K comparable, V any] struct {
	mu         sync.Mutex
	size       int
	young, old map[K]V
}

// NewMemo returns an empty memo holding at most size entries per
// generation (values below 1 are raised to 1).
func NewMemo[K comparable, V any](size int) *Memo[K, V] {
	if size < 1 {
		size = 1
	}
	return &Memo[K, V]{size: size, young: make(map[K]V)}
}

// Get returns the value stored for k and whether it was present.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.young[k]; ok {
		return v, true
	}
	v, ok := m.old[k]
	if ok {
		delete(m.old, k)
		m.putLocked(k, v)
	}
	return v, ok
}

// Put stores v for k, rotating the generations when the young one is full.
func (m *Memo[K, V]) Put(k K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.old, k)
	m.putLocked(k, v)
}

// putLocked stores v in the young generation. The generations never share
// a key: Get and Put remove it from the old one first.
func (m *Memo[K, V]) putLocked(k K, v V) {
	if _, ok := m.young[k]; !ok && len(m.young) >= m.size {
		m.old = m.young
		m.young = make(map[K]V)
	}
	m.young[k] = v
}

// Len returns the number of entries held across both generations.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.young) + len(m.old)
}
