package server

import (
	"net/http"

	"mdbgp"
)

// lookupResult is the tiered result-cache read: the in-memory LRU first, then
// the durable disk tier (when configured), promoting disk hits into memory so
// repeats of a restored key stay at memory speed. Disk hit/miss accounting
// lives in the store itself; the caller-visible contract is simply "was this
// key's result available anywhere".
func (s *Server) lookupResult(key string) (*mdbgp.Result, bool) {
	if res, ok := s.cache.Get(key, nil); ok {
		return res, true
	}
	if s.disk == nil {
		return nil, false
	}
	res, ok := s.disk.Get(key)
	if !ok {
		return nil, false
	}
	s.cache.Put(key, res)
	return res, true
}

// handleCacheIndex lists the durable tier's cache keys. Peers use it at
// startup to discover which of their ring-owned entries a neighbor can hand
// over (see WarmFromPeers); operators use it to see what a replica holds.
func (s *Server) handleCacheIndex(w http.ResponseWriter, r *http.Request) {
	if s.disk == nil {
		httpError(w, http.StatusNotFound, "no disk cache tier (start with -cache-dir)")
		return
	}
	keys := s.disk.Keys()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(keys), "keys": keys})
}

// handleCacheEntry serves one durable entry verbatim — the checksummed
// on-disk bytes, not a JSON rendering — so a warming peer can verify and
// store it without a decode/re-encode round trip. Disk tier only: the
// in-memory LRU is deliberately not consulted, keeping the endpoint cheap
// and its semantics simple ("what this replica has made durable").
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	if s.disk == nil {
		httpError(w, http.StatusNotFound, "no disk cache tier (start with -cache-dir)")
		return
	}
	data, ok := s.disk.GetRaw(r.PathValue("key"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such cache entry")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}
