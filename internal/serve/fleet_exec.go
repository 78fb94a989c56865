package serve

import "repro/internal/cache"

// snapshotRates derives every core's tick execution rate from the
// head-of-queue occupant set, per package, under the paper's shared-cache
// and bandwidth contention model. Serial, so the parallel phase reads a
// consistent snapshot.
func (f *Fleet) snapshotRates() {
	for _, nd := range f.nodes {
		// Per-package effective miss ratios.
		for _, pi := range nd.pkgs {
			pkg := f.pkgs[pi]
			for j, ci := range pkg.cores {
				c := &nd.cores[ci]
				if len(c.q) == 0 {
					pkg.demands[j] = nil
					continue
				}
				r := &c.q[0]
				tm := &f.tmpl[r.app][r.tmpl]
				d := tm.demand
				d.RefsPerIns *= r.drift
				if r.anom {
					// Injected anomalies behave as cache polluters.
					d.RefsPerIns *= anomalyPatFactor
					d.WorkingSetBytes *= anomalyPatFactor
				}
				pkg.demandBuf[j] = d
				pkg.demands[j] = &pkg.demandBuf[j]
			}
			cache.MissRatiosInto(pkg.cacheCfg, pkg.demands, pkg.miss)
		}
		// Node-wide bandwidth pressure, then per-core CPI and rate.
		var traffic float64
		for _, pi := range nd.pkgs {
			pkg := f.pkgs[pi]
			for j := range pkg.cores {
				if pkg.demands[j] != nil {
					traffic += pkg.demands[j].RefsPerIns * pkg.miss[j]
				}
			}
		}
		penalty := cache.PenaltyFactor(f.penCfg, traffic)
		for _, pi := range nd.pkgs {
			pkg := f.pkgs[pi]
			for j, ci := range pkg.cores {
				c := &nd.cores[ci]
				if pkg.demands[j] == nil {
					c.cpi, c.insPerNs = 0, 0
					continue
				}
				r := &c.q[0]
				tm := &f.tmpl[r.app][r.tmpl]
				cpi := cache.CPI(pkg.cacheCfg, tm.baseCPI, pkg.demands[j].RefsPerIns, pkg.miss[j], penalty)
				c.cpi = cpi
				c.insPerNs = nd.clock * c.scale / cpi
			}
		}
	}
}

// processPkg burns each of the package's cores' tick budgets on their
// queues. Rates are the tick-start snapshot; a core that finishes its head
// continues into the next request at the same rate (rates refresh at tick
// granularity). Only this package's state is touched.
func (f *Fleet) processPkg(pkg *fleetPkg) {
	nd := f.nodes[pkg.node]
	for _, ci := range pkg.cores {
		c := &nd.cores[ci]
		if c.insPerNs == 0 || len(c.q) == 0 {
			continue
		}
		budget := float64(f.cfg.TickNs)
		for i := range c.q {
			r := &c.q[i]
			if r.degraded {
				// Cached-template serving: a constant drain cost, no
				// instruction execution and no CPI contribution.
				if cost := float64(f.cfg.CostDegradedNs); cost > budget {
					break
				} else {
					budget -= cost
				}
				r.remIns = 0
				f.completeFleet(pkg, nd, r, f.nowNs+f.cfg.TickNs-int64(budget))
				continue
			}
			need := r.remIns / c.insPerNs
			if need > budget {
				done := budget * c.insPerNs
				r.remIns -= done
				pkg.tally.ins += done
				pkg.tally.cycles += done * c.cpi
				break
			}
			budget -= need
			pkg.tally.ins += r.remIns
			pkg.tally.cycles += r.remIns * c.cpi
			r.remIns = 0
			f.completeFleet(pkg, nd, r, f.nowNs+f.cfg.TickNs-int64(budget))
		}
		// Compact the queue: completed requests are a prefix.
		c.qNext = c.qNext[:0]
		for i := range c.q {
			if c.q[i].remIns > 0 {
				c.qNext = append(c.qNext, c.q[i])
			}
		}
		c.q, c.qNext = c.qNext, c.q
	}
}

// completeFleet finalizes a request: latency histograms, sampled anomaly
// scoring against the node bank, tallies, and the window record.
func (f *Fleet) completeFleet(pkg *fleetPkg, nd *fleetNode, r *fleetReq, doneNs int64) {
	pkg.tally.completed++
	if r.predHigh {
		pkg.tally.highDone++
	}
	lat := doneNs - r.arrivalNs
	if lat < 0 {
		// A request that arrives late in the tick and completes within the
		// same tick's budget sweep reads as instantaneous.
		lat = 0
	}
	nd.hist.Observe(lat)
	f.fleetHist.Observe(lat)
	// Degraded requests skip identification entirely — that is what the
	// degraded tier buys — so they are never scored or flagged.
	if !r.degraded && r.id%uint64(f.cfg.ScoreSampleEvery) == 0 {
		tm := f.tmpl[r.app][r.tmpl].pattern
		buf := pkg.patBuf[:0]
		for j := range tm {
			buf = append(buf, patternValue(tm, j, r.drift, r.anom))
		}
		pkg.patBuf = buf
		_, dist := nd.wb.bank.IdentifyPatternScored(buf)
		score := dist / float64(len(buf))
		pkg.tally.scoreSum += score
		if score > nd.wb.threshold {
			pkg.tally.flagged++
			if r.anom {
				pkg.tally.flaggedInjected++
			}
		}
	}
	pkg.winBuf = append(pkg.winBuf, winRec{
		app: r.app, tmpl: r.tmpl, cohort: r.cohort, anom: r.anom, drift: r.drift, cpuNs: r.cpuNs,
	})
}

// aggregate merges package tallies serially in (node, package) order —
// which is how f.pkgs is laid out.
func (f *Fleet) aggregate() {
	for _, pkg := range f.pkgs {
		nd := f.nodes[pkg.node]
		t := &pkg.tally
		nd.res.Completed += t.completed
		nd.res.Flagged += t.flagged
		nd.res.FlaggedInjected += t.flaggedInjected
		nd.res.ScoreSum += t.scoreSum
		nd.res.Cycles += t.cycles
		nd.res.Instructions += t.ins
		f.res.Completed += t.completed
		f.res.Flagged += t.flagged
		f.res.FlaggedInjected += t.flaggedInjected
		f.res.ScoreSum += t.scoreSum
		f.cCompleted.Add(t.completed)
		f.cFlagged.Add(t.flagged)
		pkg.queuedHigh -= t.highDone
		*t = pkgTally{}
		nd.wb.push(pkg.winBuf)
		pkg.winBuf = pkg.winBuf[:0]
	}
	f.res.Ticks++
}
