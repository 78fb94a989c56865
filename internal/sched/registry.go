// The scheduling-policy registry: the single authoritative list of every
// CPU scheduling policy the lab can race. Policies are constructed by name
// from a PolicyContext bundling the shared inputs (sampling tracker, usage
// monitor, high-usage threshold, signature bank), so core.Run, the schedlab
// experiment, and the conservation differential all build the same policy
// from the same name — adding a policy is one entry here and nowhere else.
//
// The registry is an ordered slice, not a map: PolicyNames() is the
// presentation and iteration order everywhere (comparison tables, golden
// fingerprints, differential sweeps), and map iteration order must never
// reach an output.
package sched

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/sampling"
	"repro/internal/signature"
)

// PolicyContext bundles the inputs a policy factory may draw on. Tracker is
// required by every adaptive policy (the baseline ignores it); Threshold by
// every policy that classifies high usage; Bank by the signature-driven
// policies (cluster co-scheduling, deadline ordering).
//
// Monitor and Sessions are built lazily from the tracker on first use and
// cached, so factories constructed from one context share predictor state —
// exactly one vaEWMA subscription and one signature-session feed per run.
type PolicyContext struct {
	// Tracker is the run's sampling layer.
	Tracker *sampling.Tracker
	// Monitor overrides the lazily built usage monitor (tests).
	Monitor *Monitor
	// Threshold is the high-usage boundary (see HighUsageThreshold).
	Threshold float64
	// Bank is the application's signature bank, for policies that predict
	// request properties from partial variation patterns.
	Bank *signature.Bank
	// Sessions overrides the lazily built signature-session feed (tests).
	Sessions *SignatureSessions
}

// monitor returns the context's usage monitor, building one from the
// tracker on first use.
func (c *PolicyContext) monitor() (*Monitor, error) {
	if c.Monitor == nil {
		if c.Tracker == nil {
			return nil, fmt.Errorf("sched: policy requires a sampling tracker")
		}
		c.Monitor = NewMonitor(c.Tracker, 0.6)
	}
	return c.Monitor, nil
}

// sessions returns the context's signature-session feed, building one from
// the tracker and bank on first use.
func (c *PolicyContext) sessions() (*SignatureSessions, error) {
	if c.Sessions == nil {
		if c.Tracker == nil {
			return nil, fmt.Errorf("sched: policy requires a sampling tracker")
		}
		if c.Bank == nil || len(c.Bank.Entries) == 0 {
			return nil, fmt.Errorf("sched: policy requires a non-empty signature bank")
		}
		c.Sessions = NewSignatureSessions(c.Tracker, c.Bank)
	}
	return c.Sessions, nil
}

// PolicyFactory names one registered scheduling policy.
type PolicyFactory struct {
	// Name is the registry key (CLI flags, comparison tables, hypotheses).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// NeedsThreshold marks policies that classify high usage: NewPolicy
	// refuses to build them without a positive PolicyContext.Threshold,
	// and core.Run checks it before building any simulation state.
	NeedsThreshold bool
	// New builds the policy from the shared context (NewPolicy checks
	// NeedsThreshold first).
	New func(*PolicyContext) (kernel.Policy, error)
}

// policies is the registry, in presentation order: the baseline first, then
// the paper's policy, then the extensions in the order they were added.
var policies = []PolicyFactory{
	{
		Name: "round-robin",
		Doc:  "baseline Linux-like scheduler (kernel.RoundRobin)",
		New: func(*PolicyContext) (kernel.Policy, error) {
			return kernel.RoundRobin{}, nil
		},
	},
	{
		Name:           "contention-easing",
		Doc:            "Section 5.2: avoid co-executing predicted high-usage requests",
		NeedsThreshold: true,
		New: func(c *PolicyContext) (kernel.Policy, error) {
			m, err := c.monitor()
			if err != nil {
				return nil, err
			}
			return NewContentionEasing(m, c.Threshold), nil
		},
	},
	{
		Name:           "topology-aware",
		Doc:            "contention easing weighted by shared-cache package locality",
		NeedsThreshold: true,
		New: func(c *PolicyContext) (kernel.Policy, error) {
			m, err := c.monitor()
			if err != nil {
				return nil, err
			}
			return NewTopologyAware(m, c.Threshold), nil
		},
	},
	{
		Name:           "cluster-cosched",
		Doc:            "avoid co-running same-signature-cluster cache polluters",
		NeedsThreshold: true,
		New: func(c *PolicyContext) (kernel.Policy, error) {
			m, err := c.monitor()
			if err != nil {
				return nil, err
			}
			s, err := c.sessions()
			if err != nil {
				return nil, err
			}
			return NewClusterCoSched(m, s, c.Threshold), nil
		},
	},
	{
		Name: "deadline",
		Doc:  "urgency order: earliest predicted-completion deadline first",
		New: func(c *PolicyContext) (kernel.Policy, error) {
			s, err := c.sessions()
			if err != nil {
				return nil, err
			}
			return NewDeadlineOrdered(s), nil
		},
	},
}

// PolicyFactories returns the registry in order (a fresh copy).
func PolicyFactories() []PolicyFactory {
	return append([]PolicyFactory(nil), policies...)
}

// PolicyNames returns the registered policy names in registry order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, f := range policies {
		names[i] = f.Name
	}
	return names
}

// LookupPolicy finds a registered policy factory by name.
func LookupPolicy(name string) (PolicyFactory, bool) {
	for _, f := range policies {
		if f.Name == name {
			return f, true
		}
	}
	return PolicyFactory{}, false
}

// NewPolicy builds a registered policy by name.
func NewPolicy(name string, ctx *PolicyContext) (kernel.Policy, error) {
	f, ok := LookupPolicy(name)
	if !ok {
		return nil, fmt.Errorf("sched: unknown policy %q (valid: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
	if f.NeedsThreshold && ctx.Threshold <= 0 {
		return nil, fmt.Errorf("sched: policy %s requires a positive usage threshold, got %g", name, ctx.Threshold)
	}
	return f.New(ctx)
}
