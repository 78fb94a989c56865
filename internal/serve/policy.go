package serve

import (
	"fmt"
	"strings"
)

// FleetPolicy selects the fleet's placement policy.
type FleetPolicy int

const (
	// FleetRoundRobin cycles arrivals across nodes, filling each node's
	// shortest core queue.
	FleetRoundRobin FleetPolicy = iota
	// FleetContentionEase places predicted high-usage requests on the
	// fleet package with the least queued high-usage pressure, easing
	// shared-cache contention (the paper's Section 5.2 policy, fleet-wide).
	FleetContentionEase
	// FleetScaleOut starts with one active node and reactively grows or
	// shrinks the active set from a saturation signal — the per-package
	// count of queued predicted-high requests. Placement within the active
	// set follows FleetContentionEase.
	FleetScaleOut
)

// String returns the policy's registered name.
func (p FleetPolicy) String() string {
	if info, ok := p.info(); ok {
		return info.Name
	}
	return fmt.Sprintf("FleetPolicy(%d)", int(p))
}

// info looks the policy up in the registry.
func (p FleetPolicy) info() (FleetPolicyInfo, bool) {
	for _, info := range fleetPolicies {
		if info.Policy == p {
			return info, true
		}
	}
	return FleetPolicyInfo{}, false
}

// FleetPolicyInfo describes one registered fleet placement policy. The
// registry is an ordered slice, not a map, so listings and error messages
// render in a stable order.
type FleetPolicyInfo struct {
	// Policy is the enum value the fleet engine switches on.
	Policy FleetPolicy
	// Name is the canonical flag-facing name (the String() form).
	Name string
	// Aliases are accepted spellings beyond the canonical name.
	Aliases []string
	// Doc is a one-line description for usage text.
	Doc string
}

// fleetPolicies is the registry, in presentation order.
var fleetPolicies = []FleetPolicyInfo{
	{
		Policy:  FleetRoundRobin,
		Name:    "round-robin",
		Aliases: []string{"rr"},
		Doc:     "cycle arrivals across nodes, shortest core queue within the node",
	},
	{
		Policy:  FleetContentionEase,
		Name:    "contention-easing",
		Aliases: []string{"ease"},
		Doc:     "route predicted-high requests to the least-pressured package fleet-wide",
	},
	{
		Policy:  FleetScaleOut,
		Name:    "scale-out",
		Aliases: []string{"scale"},
		Doc:     "grow/shrink the active node set from queued-high saturation; ease within it",
	},
}

// FleetPolicies returns the registered fleet policies in stable order. The
// returned slice is shared; callers must not mutate it.
func FleetPolicies() []FleetPolicyInfo { return fleetPolicies }

// FleetPolicyNames returns the canonical policy names in registry order.
func FleetPolicyNames() []string {
	names := make([]string, len(fleetPolicies))
	for i, p := range fleetPolicies {
		names[i] = p.Name
	}
	return names
}

// ParseFleetPolicy resolves a canonical name or alias to its policy. The
// error quotes the unknown name and lists the valid spellings.
func ParseFleetPolicy(name string) (FleetPolicy, error) {
	for _, p := range fleetPolicies {
		if name == p.Name {
			return p.Policy, nil
		}
		for _, a := range p.Aliases {
			if name == a {
				return p.Policy, nil
			}
		}
	}
	var valid []string
	for _, p := range fleetPolicies {
		valid = append(valid, p.Name)
		valid = append(valid, p.Aliases...)
	}
	return 0, fmt.Errorf("serve: unknown fleet policy %q (valid: %s)", name, strings.Join(valid, ", "))
}
