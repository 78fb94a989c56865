package verify

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/signature"
	"repro/internal/workload"
)

// checkPolicyConservation: every registered scheduling policy must conserve
// the workload. A policy only reorders execution — it must never duplicate,
// drop, or mutate a request — so for each policy in the sched registry the
// same closed loop must (a) complete every arrival exactly once, (b) execute
// the same total instruction stream as every other policy (cycles may
// differ: that is what contention policies change), and (c) replay to a
// bit-identical trace fingerprint on a second run.
func checkPolicyConservation(seed int64) error {
	app := workload.NewWebServer()
	const requests = 12
	sampl := core.DefaultSampling(app)

	// Shared calibration for the policies that need a threshold or bank.
	calib, err := core.Run(core.Options{App: app, Requests: requests, Seed: seed},
		core.WithSampling(sampl))
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	threshold := sched.HighUsageThreshold(calib.Store, 80)
	bank := signature.BuildCompact(calib.Store.Traces, metrics.L2RefsPerIns,
		core.BucketFor(app.Name()), 0, 4, seed)

	var refIns uint64
	var refPolicy string
	for _, name := range sched.PolicyNames() {
		run := func() (*core.Result, string, error) {
			res, err := core.Run(core.Options{
				App: app, Requests: requests, Seed: seed, Sampling: sampl,
				PolicyName: name, UsageThreshold: threshold, SignatureBank: bank,
			})
			if err != nil {
				return nil, "", err
			}
			lines, err := Canonicalize(res.Store)
			if err != nil {
				return nil, "", err
			}
			return res, FingerprintLines(lines), nil
		}
		res, fp, err := run()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if _, fp2, err := run(); err != nil {
			return fmt.Errorf("%s repeat: %w", name, err)
		} else if fp != fp2 {
			return fmt.Errorf("%s: trace fingerprint differs between repeats", name)
		}

		// Exactly-once completion: the trace count matches the arrivals and
		// no ID appears twice (traces are in completion order, so the first
		// duplicate found is deterministic).
		if res.Store.Len() != requests {
			return fmt.Errorf("%s: %d traced requests, want %d", name, res.Store.Len(), requests)
		}
		seen := make(map[uint64]bool, requests)
		var ins uint64
		for _, tr := range res.Store.Traces {
			if seen[tr.ID] {
				return fmt.Errorf("%s: request %d completed more than once", name, tr.ID)
			}
			seen[tr.ID] = true
			ins += tr.Instructions()
		}

		// Cross-policy conservation: the same total instruction stream. The
		// traced totals round at period boundaries, and different policies
		// cut periods at different context switches, so a couple of
		// instructions of slack per request is measurement noise; anything
		// beyond that means a policy changed what executed, not just when.
		tol := uint64(requests) * 4
		if refPolicy == "" {
			refIns, refPolicy = ins, name
		} else if d := diffU64(ins, refIns); d > tol {
			return fmt.Errorf("%s executed %d instructions, %s executed %d (Δ%d > %d) — a policy mutated the workload",
				name, ins, refPolicy, refIns, d, tol)
		}
	}
	return nil
}

func diffU64(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
