package policytest_test

import (
	"testing"

	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest/policytest"
)

// The built-in policies and the learning policy must all pass the Policy
// acceptance suite.

func TestContractMinimal(t *testing.T) {
	policytest.Contract(t, func() routing.Policy { return routing.BuiltinPolicy(routing.Minimal) })
}

func TestContractAdaptive(t *testing.T) {
	policytest.Contract(t, func() routing.Policy { return routing.BuiltinPolicy(routing.Adaptive) })
}

func TestContractQAdaptive(t *testing.T) {
	policytest.Contract(t, func() routing.Policy {
		return routing.NewQAdaptivePolicy(routing.QAdaptiveConfig{})
	})
}

// flipPolicy alternates between the chooser's minimal and Valiant builders
// for inter-group traffic, falling back to minimal when the Valiant
// candidate is infeasible. It is deliberately written against nothing but
// the exported Chooser surface (MinimalPath, ValiantPath, GroupOf) and
// never asks whether the fabric is degraded — passing the contract, faulted
// regimes included, proves the SPI is sufficient for an out-of-tree
// policy, not just for the built-ins that share the package.
type flipPolicy struct {
	c *routing.Chooser
	n int
}

func (p *flipPolicy) Name() string            { return "flip" }
func (p *flipPolicy) Bind(c *routing.Chooser) { p.c = c }

func (p *flipPolicy) Route(rs, rd topology.RouterID) (routing.Path, error) {
	p.n++
	if p.c.GroupOf(rs) != p.c.GroupOf(rd) && p.n%2 == 1 {
		if v, ok := p.c.ValiantPath(rs, rd); ok {
			return v, nil
		}
	}
	return p.c.MinimalPath(rs, rd)
}

func TestContractCustomPolicy(t *testing.T) {
	policytest.Contract(t, func() routing.Policy { return &flipPolicy{} })
}
