package signature

import "sort"

// Names lists the indexed names sorted.
func (x *Index) Names() []string {
	x.mu.RLock()
	out := make([]string, 0, len(x.byName))
	for n := range x.byName {
		out = append(out, n)
	}
	x.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len reports how many signatures are indexed.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.byName)
}
