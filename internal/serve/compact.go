// Online bank compaction and threshold calibration for the single-node
// engine. Every CompactTicks ticks the engine, in its serial phase, has its
// windowBank (bank.go) recluster the sliding window and recalibrate the
// anomaly threshold, then rebuilds the matcher in place, rebinds every
// in-flight session (Service.SetMatcher), and refreshes the degraded-path
// template cache — all in preallocated scratch, so a steady-state
// compaction allocates nothing.
package serve

import "repro/internal/signature"

// buildMatcher builds the matcher over the seeded bank. It first pre-sizes
// the envelope against a worst-case bank — as many entries as the larger of
// the template bank and the compacted bank, every pattern at the length
// cap: Rebuild only reuses per-slot storage that is already big enough, so
// seeding every slot at the cap makes all later compaction rebuilds
// allocation-free no matter which medoid lengths they draw.
func (e *Engine) buildMatcher() {
	e.matcher = &signature.Matcher{}
	k := e.cfg.BankK
	if n := len(e.wb.bank.Entries); n > k {
		k = n
	}
	if k > 0 {
		warm := &signature.Bank{Entries: make([]signature.Entry, k)}
		full := make([]float64, e.cfg.MaxPatternLen)
		for i := range warm.Entries {
			warm.Entries[i].Pattern = full
		}
		e.matcher.Rebuild(warm)
	}
	e.matcher.Rebuild(e.wb.bank)
}

// compact runs one bank compaction cycle. After a rebuild it swaps the bank
// under live traffic: the envelope rebuilds in place, every live and pooled
// session rebinds (its next identification re-runs the full prefix against
// the new bank, bit-identical to a fresh session), and the degraded-path
// cache refreshes.
func (e *Engine) compact() {
	recals := e.wb.recalibrations
	if e.wb.compact(e.cfg.Stream.Seed + int64(e.wb.compactions)) {
		e.matcher.Rebuild(e.wb.bank)
		e.svc.SetMatcher(e.matcher)
		e.refreshTemplateCache()
		e.cCompactions.Add(1)
	}
	e.cRecalibrations.Add(e.wb.recalibrations - recals)
}

// refreshTemplateCache re-identifies every template against the current
// bank. Cached matches are anomaly- and drift-free (the template's
// inherent behavior), which is exactly the blindness degradation buys:
// an overloaded shard stops seeing per-request deviations.
func (e *Engine) refreshTemplateCache() {
	for a := range e.tmpl {
		for t := range e.tmpl[a] {
			pat := e.tmpl[a][t].pattern
			best, dist := e.wb.bank.IdentifyPatternScored(pat)
			e.tmplCache[a][t] = tmplMatch{
				best:  best,
				high:  e.wb.bank.HighUsage(best),
				score: dist / float64(len(pat)),
			}
		}
	}
}
