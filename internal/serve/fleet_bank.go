package serve

import "repro/internal/workload"

// compactRound compacts every node's windowBank in node order, then merges
// the node banks every MergeEvery rounds. Each node's k-medoids RNG seed
// is a pure function of the stream seed, the node index, and that node's
// compaction count, so nodes never share a draw sequence.
func (f *Fleet) compactRound() {
	for ni, n := range f.nodes {
		n.wb.compact(f.cfg.Stream.Seed + int64(ni)*1_000_003 + int64(n.wb.compactions))
	}
	f.res.CompactionRounds++
	if f.cfg.MergeEvery > 0 && f.res.CompactionRounds%uint64(f.cfg.MergeEvery) == 0 {
		f.mergeBanks()
	}
}

// mergeBanks concatenates every node's bank in node order, reclusters the
// union to BankK medoids, and installs the merged bank on every node —
// the fleet's gossip step, collapsed to one deterministic serial
// operation. Node thresholds recalibrate against the merged bank, and the
// per-cohort high-usage thresholds refresh from the windows' cohort
// medians.
func (f *Fleet) mergeBanks() {
	mg := &f.merge
	mg.n = 0
	for _, n := range f.nodes {
		for _, e := range n.wb.bank.Entries {
			if !mg.add(e.Pattern, e.CPUTimeNs, appIndexOf(f.cfg.Stream.Apps, e.Type)) {
				break
			}
		}
	}
	if mg.n == 0 {
		return
	}
	medoids := mg.medoids(f.cfg.Stream.Seed + int64(f.res.Merges))
	for _, n := range f.nodes {
		n.wb.install(mg, medoids)
		n.wb.recalibrate()
	}
	// Per-cohort admission thresholds: the median request cost of each
	// cohort across every node's current window, in node order. Cohorts
	// with no windowed completions fall back to the merged bank's median.
	for ci := range f.cohortCPUs {
		f.cohortCPUs[ci] = f.cohortCPUs[ci][:0]
	}
	for _, n := range f.nodes {
		for i := 0; i < n.wb.winLen; i++ {
			rec := n.wb.at(i)
			f.cohortCPUs[rec.cohort] = append(f.cohortCPUs[rec.cohort], rec.cpuNs)
		}
	}
	for ci := range f.fleetThresholds {
		if cpus := f.cohortCPUs[ci]; len(cpus) > 0 {
			f.fleetThresholds[ci] = medianInPlace(cpus)
		} else {
			f.fleetThresholds[ci] = f.nodes[0].wb.bank.ThresholdNs
		}
	}
	f.res.Merges++
	f.cMerges.Add(1)
}

// appIndexOf maps an app name back to its mix index (0 fallback).
func appIndexOf(apps []workload.StreamApp, name string) int32 {
	for i, a := range apps {
		if a.Name == name {
			return int32(i)
		}
	}
	return 0
}
