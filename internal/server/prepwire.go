package server

import (
	"fmt"

	"mdbgp"
	"mdbgp/internal/obs"
)

// Prep-cache wiring: the assignment-independent half of a coarsening solve
// (the coarsening hierarchy) is retained per graph in a byte-budgeted LRU
// (internal/lru) and injected into later solves of the same graph.
//
// Keys are derived from what the ARTIFACT depends on, not from what the
// request happened to spell: they cover every input that shapes the
// hierarchy or that the engines' injection checks compare (seed, coarsening
// knobs, balance dimensions). Under-keying here could not produce a wrong
// answer — the engines re-verify every hierarchy and rebuild on mismatch —
// but it COULD quietly serve zero reuse or, worse for debuggability, bias
// which requests hit; the key-audit tests pin the derivation.

// preppedHierarchy pairs a prepared coarsening hierarchy with the exact graph
// instance it was built against. The graph cache canonicalizes same-content
// submissions onto one instance (Server.graphs.GetOrPut), so pointer identity
// is the cheap and airtight "same graph" check; an entry whose graph instance
// was since evicted fails validation and is dropped as a miss.
type preppedHierarchy struct {
	g  *mdbgp.Graph
	ph *mdbgp.PreparedHierarchy
}

// hierarchyPrepKey keys a coarsening hierarchy: the graph, the engine whose
// coarsener built it, and every option that shapes the hierarchy's content —
// the seed (both coarseners draw from seeded RNG streams), the coarsening
// knobs, and the balance dimensions (vertex weights ride the hierarchy's
// levels, and clustering consults them).
func hierarchyPrepKey(graphHash string, c mdbgp.Options, dimNames string) string {
	return fmt.Sprintf("%s:%s:hierarchy:%s:seed=%d|coarsen=%d|cluster=%d|dims=%s",
		mdbgp.EngineVersion, graphHash, c.Engine, c.Seed, c.CoarsenTo, c.ClusterSize, dimNames)
}

// attachPrep injects a cached coarsening hierarchy into a solve's options,
// building and retaining it on a miss. opts must already be canonical (it is
// j.opts, canonicalized at dispatch). Everything here is best-effort
// amortization: any error or mismatch leaves the hierarchy out and the solve
// rebuilds inline. On a miss the returned opts also carry the solve's
// weights, resolved once for both the hierarchy and the solve.
func (s *Server) attachPrep(g *mdbgp.Graph, hash, dimNames string, dims []mdbgp.Weight, opts mdbgp.Options, parent *obs.Span) mdbgp.Options {
	if !s.preps.Enabled() || hash == "" {
		return opts
	}
	// Warm-started multilevel solves skip coarsening entirely, so preparing
	// a hierarchy for them would be pure waste.
	wantHierarchy := opts.Engine == "metis" ||
		(opts.Engine == "multilevel" && opts.WarmAssignment == nil)
	if !wantHierarchy {
		return opts
	}
	sp := parent.Start("prep")
	defer sp.End()

	key := hierarchyPrepKey(hash, opts, dimNames)
	cached, hit := s.preps.Get(key, func(p preppedHierarchy) bool { return p.g == g })
	if hit {
		s.met.prepHits.Add(1)
		opts.PrepHierarchy = cached.ph
		sp.SetAttr("hierarchy", "hit")
	} else {
		s.met.prepMisses.Add(1)
		// The hierarchy embeds the solve's vertex weights, so it is built
		// under exactly the weights the solve runs with: the same slices,
		// handed on in opts so defaultSolve need not resolve them again.
		if ws, err := mdbgp.StandardWeights(g, dims...); err == nil {
			opts.Weights = ws
			if ph, err := mdbgp.PrepareHierarchy(g, opts); err == nil {
				opts.PrepHierarchy = ph
				s.preps.Put(key, preppedHierarchy{g: g, ph: ph})
				sp.SetAttr("hierarchy", "build")
			}
		}
	}
	sp.SetAttr("cache_hit", hit)
	return opts
}
