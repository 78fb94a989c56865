package serve

import "math"

// ingest routes stream arrivals up to the tick boundary through the
// placement policy.
func (f *Fleet) ingest(tickEnd int64) int {
	var n int
	for {
		if !f.havePending {
			f.stream.Next(&f.pending)
			f.havePending = true
		}
		if f.pending.TimeNs >= tickEnd {
			return n
		}
		a := f.pending
		f.havePending = false
		n++
		f.res.Arrivals++
		f.cArrivals.Add(1)

		tmpls := f.tmpl[a.App]
		t := int((a.Bits >> 8) % uint64(len(tmpls)))
		anom := isAnomalous(a.Bits)
		cohort := f.cfg.Stream.CohortOf(a.Bits)
		drift := f.stream.CohortDriftAt(a.TimeNs, cohort)
		cpu := tmpls[t].cpuNs * drift
		if anom {
			cpu *= anomalyCPUFactor
			f.res.Injected++
		}
		r := fleetReq{
			id:        f.nextID,
			arrivalNs: a.TimeNs,
			remIns:    tmpls[t].ins,
			drift:     drift,
			cpuNs:     cpu,
			app:       int32(a.App),
			tmpl:      int32(t),
			cohort:    int32(cohort),
			anom:      anom,
			predHigh:  cpu > f.fleetThresholds[cohort],
		}
		f.nextID++
		node, core := f.place(&r)
		nd := f.nodes[node]
		c := &nd.cores[core]
		if len(c.q) == cap(c.q) {
			f.res.Shed++
			nd.res.Shed++
			f.cShed.Add(1)
			continue
		}
		if len(c.q) >= f.cfg.DegradeDepth {
			r.degraded = true
			f.res.Degraded++
			nd.res.Degraded++
			f.cDegraded.Add(1)
		}
		c.q = append(c.q, r)
		if r.predHigh {
			f.pkgs[f.pkgOf(node, core)].queuedHigh++
		}
		if len(c.q) > nd.res.MaxQueueDepth {
			nd.res.MaxQueueDepth = len(c.q)
		}
	}
}

// pkgOf returns the global package index of a node-local core.
func (f *Fleet) pkgOf(node, core int) int {
	nd := f.nodes[node]
	for _, pi := range nd.pkgs {
		pkg := f.pkgs[pi]
		if core >= pkg.cores[0] && core <= pkg.cores[len(pkg.cores)-1] {
			return pi
		}
	}
	return nd.pkgs[0]
}

// updateScale is the scale-out policy's serial control loop, run at the
// start of every ingesting tick before arrivals route. It counts saturated
// active packages against the high-water mark to grow the active set, and
// shrinks from the newest active node when fleet-wide queued-high pressure
// falls under the low-water mark and that node has drained. At most one
// action per cooldown window, so the fleet cannot thrash.
func (f *Fleet) updateScale() {
	if f.cooldown > 0 {
		f.cooldown--
		return
	}
	var pkgs, cores, queuedHigh, saturated int
	for _, pkg := range f.pkgs {
		if pkg.node >= f.active {
			continue
		}
		pkgs++
		cores += len(pkg.cores)
		queuedHigh += pkg.queuedHigh
		if float64(pkg.queuedHigh) >= f.cfg.ScaleHighWater*float64(len(pkg.cores)) {
			saturated++
		}
	}
	switch {
	case 2*saturated >= pkgs && f.active < len(f.nodes):
		f.active++
		f.res.ScaleUps++
		f.cooldown = f.cfg.ScaleCooldownTicks
	case f.active > 1 &&
		float64(queuedHigh) <= f.cfg.ScaleLowWater*float64(cores) &&
		f.nodeIdle(f.active-1):
		f.active--
		f.res.ScaleDowns++
		f.cooldown = f.cfg.ScaleCooldownTicks
	}
}

// nodeIdle reports whether every core queue of a node is empty.
func (f *Fleet) nodeIdle(ni int) bool {
	nd := f.nodes[ni]
	for i := range nd.cores {
		if len(nd.cores[i].q) > 0 {
			return false
		}
	}
	return true
}

// place picks the (node, core) for an arrival. All tie-breaks are by lowest
// index, so placement is deterministic. Routing only ever considers the
// active node prefix — the whole fleet except under scale-out.
func (f *Fleet) place(r *fleetReq) (node, core int) {
	ease := f.cfg.Policy == FleetContentionEase || f.cfg.Policy == FleetScaleOut
	if ease && r.predHigh {
		// Least high-usage pressure per core across the active packages.
		bestPkg, best := -1, math.Inf(1)
		for pi, pkg := range f.pkgs {
			if pkg.node >= f.active {
				continue
			}
			p := float64(pkg.queuedHigh) / float64(len(pkg.cores))
			if p < best {
				best, bestPkg = p, pi
			}
		}
		pkg := f.pkgs[bestPkg]
		return pkg.node, shortestCore(f.nodes[pkg.node], pkg.cores)
	}
	if ease {
		// Low-usage requests fill the shortest active queue.
		bestNode, bestCore, best := 0, 0, int(^uint(0)>>1)
		for ni, nd := range f.nodes[:f.active] {
			for ci := range nd.cores {
				if l := len(nd.cores[ci].q); l < best {
					best, bestNode, bestCore = l, ni, ci
				}
			}
		}
		return bestNode, bestCore
	}
	// Round-robin across active nodes, shortest queue within the node.
	node = int(f.rrSeq % uint64(f.active))
	f.rrSeq++
	nd := f.nodes[node]
	core = 0
	for ci := 1; ci < len(nd.cores); ci++ {
		if len(nd.cores[ci].q) < len(nd.cores[core].q) {
			core = ci
		}
	}
	return node, core
}

// shortestCore returns the package core with the shortest queue (lowest
// index on ties).
func shortestCore(nd *fleetNode, cores []int) int {
	best := cores[0]
	for _, ci := range cores[1:] {
		if len(nd.cores[ci].q) < len(nd.cores[best].q) {
			best = ci
		}
	}
	return best
}
