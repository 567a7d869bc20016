package server

import (
	"bytes"
	"encoding/binary"
	"math"
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
// characterizations are stored in encodeResult's binary form under char| +
// the canonical design-point key, stamped with explorer.ModelVersion by the
// store itself.
type charStore struct{ st *store.Store }

func (c charStore) Load(key string) (array.Result, bool) {
	raw, ok := c.st.Get(charPrefix + key)
	if !ok {
		return array.Result{}, false
	}
	return decodeResult(raw)
}

func (c charStore) Save(key string, r array.Result) {
	_ = c.st.Put(charPrefix+key, encodeResult(r))
}

// resultMagic opens every encoded characterization. Entries written in an
// older encoding (gob) lack it, decode as a miss and are recomputed.
const resultMagic = "ctres/1\n"

// resultInts and resultFloats list a Result's fields in their one encoded
// order, shared by the encoder and the decoder. A field missing here is
// caught by the round-trip test, which fills every field by reflection.
func resultInts(r *array.Result) [5]*int {
	return [...]*int{&r.Org.Banks, &r.Org.Rows, &r.Org.Cols, &r.Org.ColumnMux, &r.Dies}
}

func resultFloats(r *array.Result) [35]*float64 {
	rp, wp := &r.ReadParts, &r.WriteParts
	return [...]*float64{
		&r.Temperature, &r.ReadLatency, &r.WriteLatency, &r.RandomCycle, &r.BandwidthAccesses,
		&r.ReadEnergy, &r.WriteEnergy, &r.ReadEnergyPerBit, &r.WriteEnergyPerBit,
		&r.LeakagePower, &r.RefreshPower, &r.RefreshOccupancy, &r.Retention,
		&r.FootprintM2, &r.TotalSiliconM2, &r.CellAreaM2, &r.ArrayEfficiency,
		&rp.HTreeRequest, &rp.InBankRoute, &rp.Vertical, &rp.Decode, &rp.Wordline,
		&rp.BitlineSense, &rp.ColumnMux, &rp.HTreeReply, &rp.WritePulse,
		&wp.HTreeRequest, &wp.InBankRoute, &wp.Vertical, &wp.Decode, &wp.Wordline,
		&wp.BitlineSense, &wp.ColumnMux, &wp.HTreeReply, &wp.WritePulse,
	}
}

// encodeResult is the fixed field-order binary form of a characterization:
// the magic, the integers as varints, the cell name length-prefixed, then
// every float64 as its IEEE-754 bits, so ±Inf (the retention of static
// cells) and NaN round-trip bit-exactly — JSON cannot carry them.
func encodeResult(r array.Result) []byte {
	b := make([]byte, 0, len(resultMagic)+5*binary.MaxVarintLen64+binary.MaxVarintLen64+len(r.CellName)+35*8)
	b = append(b, resultMagic...)
	for _, p := range resultInts(&r) {
		b = binary.AppendVarint(b, int64(*p))
	}
	b = binary.AppendUvarint(b, uint64(len(r.CellName)))
	b = append(b, r.CellName...)
	for _, p := range resultFloats(&r) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*p))
	}
	return b
}

// decodeResult inverts encodeResult. Any other input — an older encoding,
// a truncated or padded one — reports false.
func decodeResult(raw []byte) (array.Result, bool) {
	var r array.Result
	rest, ok := bytes.CutPrefix(raw, []byte(resultMagic))
	if !ok {
		return r, false
	}
	for _, p := range resultInts(&r) {
		v, n := binary.Varint(rest)
		if n <= 0 {
			return array.Result{}, false
		}
		*p, rest = int(v), rest[n:]
	}
	l, n := binary.Uvarint(rest)
	if n <= 0 || l > uint64(len(rest)-n) {
		return array.Result{}, false
	}
	r.CellName, rest = string(rest[n:n+int(l)]), rest[n+int(l):]
	floats := resultFloats(&r)
	if len(rest) != 8*len(floats) {
		return array.Result{}, false
	}
	for i, p := range floats {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return r, true
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
