package store

import (
	"bytes"
	"cmp"
	"slices"
)

// slot is one index entry: a key hash and where its newest record sits.
// 32 bytes, with no per-entry overhead beyond a bucket's spare capacity.
type slot struct {
	k   keyHash
	n   uint32
	off int64
}

func (s slot) span() span { return span{s.off, int64(s.n)} }

// maxRecord is the largest record a slot can locate.
const maxRecord = 1<<32 - 1

// bucketBits is how many leading bits of a key hash pick its bucket.
const bucketBits = 10

// index maps key hashes to record spans. The hashes are uniform, so
// bucketing them by their leading bits splits the keys evenly; each bucket
// is a short slice sorted by hash. A lookup is a binary search, a write an
// insert into one short slice, and the buckets read in order are the whole
// index in key-hash order — Walk's order — without a map's per-entry
// overhead or a rebuild that briefly holds two copies of the index.
type index struct {
	buckets [1 << bucketBits][]slot
	count   int
}

func bucketOf(k keyHash) int {
	return int(k[0])<<(bucketBits-8) | int(k[1])>>(16-bucketBits)
}

func compareHash(a, b keyHash) int { return bytes.Compare(a[:], b[:]) }

func (x *index) find(k keyHash) (b, i int, ok bool) {
	b = bucketOf(k)
	i, ok = slices.BinarySearchFunc(x.buckets[b], k, func(s slot, k keyHash) int { return compareHash(s.k, k) })
	return b, i, ok
}

// get returns k's span.
func (x *index) get(k keyHash) (span, bool) {
	b, i, ok := x.find(k)
	if !ok {
		return span{}, false
	}
	return x.buckets[b][i].span(), true
}

// put points k at sp and returns the span it replaces, if any.
func (x *index) put(k keyHash, sp span) (span, bool) {
	b, i, ok := x.find(k)
	s := slot{k, uint32(sp.n), sp.off}
	if ok {
		old := x.buckets[b][i].span()
		x.buckets[b][i] = s
		return old, true
	}
	bucket := x.buckets[b]
	if len(bucket) == cap(bucket) {
		// Grow by a quarter rather than append's doubling, so spare
		// capacity stays a small share of the index.
		grown := make([]slot, len(bucket), len(bucket)+len(bucket)/4+2)
		copy(grown, bucket)
		bucket = grown
	}
	x.buckets[b] = slices.Insert(bucket, i, s)
	x.count++
	return span{}, false
}

// remove drops k and returns the span it had, if any.
func (x *index) remove(k keyHash) (span, bool) {
	b, i, ok := x.find(k)
	if !ok {
		return span{}, false
	}
	old := x.buckets[b][i].span()
	x.buckets[b] = slices.Delete(x.buckets[b], i, i+1)
	x.count--
	return old, true
}

func (x *index) len() int { return x.count }

// sorted returns every entry in key-hash order.
func (x *index) sorted() []slot {
	out := make([]slot, 0, x.count)
	for _, b := range x.buckets {
		out = append(out, b...)
	}
	return out
}

// relocate replaces the whole index with entries (in any order), each
// carrying its record's new offset.
func (x *index) relocate(entries []slot) {
	slices.SortFunc(entries, func(a, b slot) int { return compareHash(a.k, b.k) })
	*x = index{count: len(entries)}
	for len(entries) > 0 {
		b, n := bucketOf(entries[0].k), 1
		for n < len(entries) && bucketOf(entries[n].k) == b {
			n++
		}
		x.buckets[b] = slices.Clip(entries[:n])
		entries = entries[n:]
	}
}

// byOffset sorts entries into log order.
func byOffset(entries []slot) {
	slices.SortFunc(entries, func(a, b slot) int { return cmp.Compare(a.off, b.off) })
}
