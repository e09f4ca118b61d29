package server

import "mdbgp"

// The daemon's three caches are internal/lru instances, charged per entry as
// key + lru.EntryOverhead + payload. These helpers size the payloads of the
// two count-bounded ones; the prep cache charges a hierarchy's own Bytes.
//
// The result cache is content-addressed: keys are graph-hash +
// canonical-options fingerprints (see cacheKey), so any byte stream that
// canonicalizes to the same graph and solver configuration — reordered edge
// lists, duplicate edges, explicit defaults — addresses the same entry.
//
// The graph cache holds solved base graphs keyed by canonical CSR hash. Delta
// submissions (?base=...) apply their delta to an entry there, so evicting
// one degrades the affected deltas to "resubmit the full graph" — which is
// why it is bounded separately from (and typically smaller than) the result
// cache. It also canonicalizes graph instances (see dispatch), which is what
// lets the prep cache validate hierarchies by pointer identity.
//
// Cached results and graphs are shared across jobs and must be treated as
// immutable.

// resultBytes approximates the retained size of a result payload: the
// assignment dominates (4 bytes per vertex), plus the fixed-size quality
// fields.
func resultBytes(res *mdbgp.Result) int64 {
	b := int64(64)
	if res.Assignment != nil {
		b += int64(len(res.Assignment.Parts)) * 4
	}
	b += int64(len(res.Imbalances)) * 8
	return b
}

// graphBytes approximates a CSR graph's retained size: 8 bytes per offset,
// 4 per directed adjacency entry.
func graphBytes(g *mdbgp.Graph) int64 {
	return 8*int64(g.N()+1) + 4*g.DirectedSize() + 64
}
