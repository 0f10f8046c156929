package core

import (
	"fmt"
	"strings"
)

// This file is the allocation-strategy layer: a named, registered
// allocator variant per strategy. A strategy spec — a registered name,
// optionally followed by ":" and comma-separated parameters
// ("remat:split=all-loops,no-bias") — is the one way to say which
// allocator runs: Table 1's two columns (chaitin, remat), §6's
// splitting schemes, §2's spill metric, §4's ablation switches, and the
// spill-everywhere baselines. LookupStrategy parses a spec once into a
// strategyParams value the passes of round read; Spec renders that
// value back as the canonical text the driver's cache key, audit
// records and Result.Strategy all carry.

// strategyParams is the allocator configuration one strategy spec
// selects.
type strategyParams struct {
	// remat selects the paper's per-value tags, splits and conservative
	// coalescing (Table 1's "Rematerialization" column); false is
	// Chaitin's whole-range rule (the "Optimistic" column).
	remat bool
	// split is one of §6's experimental live-range splitting schemes;
	// SplitNone is the paper's main configuration.
	split SplitScheme
	// metric is the spill-candidate metric. The paper uses Chaitin's
	// cost/degree ("the metric for picking spill candidates is
	// critical", §2); the alternatives come from the spill-minimization
	// literature it cites (Bernstein et al.).
	metric SpillMetric
	// noCoalesce keeps the splits renumber inserted (§4.2); noBias turns
	// off partner-color preference in select and noLookahead the
	// one-level partner lookahead (§4.3).
	noCoalesce, noBias, noLookahead bool
}

// Strategy is one registered allocation strategy, or a parameterized
// derivation of one (LookupStrategy of a "name:k=v,..." spec). The
// built-ins — chaitin, remat, spill-everywhere, ssa-spill — are the
// whole registry; runStrategy dispatches on the name, and only chaitin
// and remat, which run Figure 2, take parameters.
type Strategy struct {
	name        string
	description string
	// params is the parsed configuration and spec its canonical text.
	params strategyParams
	spec   string
}

// Name returns the strategy's registered (base) name.
func (s *Strategy) Name() string { return s.name }

// Description returns the one-line human description.
func (s *Strategy) Description() string { return s.description }

// Spec returns the canonical spec naming this exact configuration: the
// base name plus the parameters that differ from the defaults, in
// sorted order, with the metric spelled in ASCII
// ("remat:metric=cost/degree2,no-bias,split=all-loops"). Two specs are
// equal exactly when they configure identical allocations — the
// property the driver's cache key relies on.
func (s *Strategy) Spec() string { return s.spec }

// canonicalSpec renders name and p as Spec describes.
func canonicalSpec(name string, p strategyParams) string {
	var params []string
	if p.metric != MetricCostOverDegree {
		params = append(params, "metric="+spillMetricNames[p.metric])
	}
	if p.noBias {
		params = append(params, "no-bias")
	}
	if p.noCoalesce {
		params = append(params, "no-coalesce")
	}
	if p.noLookahead {
		params = append(params, "no-lookahead")
	}
	if p.split != SplitNone {
		params = append(params, "split="+p.split.String())
	}
	if len(params) == 0 {
		return name
	}
	return name + ":" + strings.Join(params, ",")
}

// withParams derives a parameterized copy of the strategy, applying the
// parameters in order (a repeated key's last value wins).
func (s *Strategy) withParams(raw []string) (*Strategy, error) {
	if s.name != "chaitin" && s.name != "remat" {
		return nil, fmt.Errorf("strategy %q takes no parameters", s.name)
	}
	d := *s
	for _, p := range raw {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		key, val, hasVal := strings.Cut(p, "=")
		if err := d.params.set(key, val, hasVal); err != nil {
			return nil, fmt.Errorf("strategy %q: %w", s.name, err)
		}
	}
	d.spec = canonicalSpec(d.name, d.params)
	return &d, nil
}

// UnknownStrategyError reports a LookupStrategy miss. The serving layer
// surfaces Registered to clients so a 400 names every valid choice.
type UnknownStrategyError struct {
	Name       string
	Registered []string
}

func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("unknown strategy %q (registered: %s)", e.Name, strings.Join(e.Registered, ", "))
}

// Strategies lists the registered strategies in registration order.
func Strategies() []*Strategy {
	return append([]*Strategy(nil), strategies...)
}

// StrategyNames lists the registered strategy names in registration
// order.
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return names
}

// LookupStrategy resolves a strategy spec: a registered name, optionally
// followed by ":" and comma-separated parameters ("remat:split=all-loops,
// no-bias"). An unregistered base name returns *UnknownStrategyError
// listing the valid names; a parameter the strategy does not accept is
// an ordinary error.
func LookupStrategy(spec string) (*Strategy, error) {
	name, rest, _ := strings.Cut(spec, ":")
	for _, s := range strategies {
		if s.name != name {
			continue
		}
		if rest == "" {
			return s, nil
		}
		return s.withParams(strings.Split(rest, ","))
	}
	return nil, &UnknownStrategyError{Name: name, Registered: StrategyNames()}
}

// splitSchemeByName maps the spec names of the §6 schemes.
func splitSchemeByName(name string) (SplitScheme, error) {
	for _, s := range []SplitScheme{SplitNone, SplitAllLoops, SplitOuterLoops, SplitInactiveLoops, SplitAtPhis} {
		if s.String() == name {
			return s, nil
		}
	}
	return SplitNone, fmt.Errorf("unknown split scheme %q", name)
}

// spillMetricNames are the canonical spec spellings of the spill
// metrics, indexed by SpillMetric.
var spillMetricNames = [...]string{
	MetricCostOverDegree:        "cost/degree",
	MetricCostOverDegreeSquared: "cost/degree2",
	MetricCost:                  "cost",
}

// spillMetricByName maps the spec names of the spill-candidate metrics,
// accepting "cost/degree²" for "cost/degree2".
func spillMetricByName(name string) (SpillMetric, error) {
	if name == "cost/degree²" {
		name = "cost/degree2"
	}
	for m, n := range spillMetricNames {
		if n == name {
			return SpillMetric(m), nil
		}
	}
	return MetricCostOverDegree, fmt.Errorf("unknown spill metric %q", name)
}

// set applies one "key" (hasVal false) or "key=value" parameter. Both
// strategies take the spill metric; remat also takes §6's splitting
// schemes and the paper's ablation switches, which are bare flags and
// reject any "=value".
func (p *strategyParams) set(key, val string, hasVal bool) error {
	var flag *bool
	switch {
	case key == "metric":
		m, err := spillMetricByName(val)
		if err != nil {
			return err
		}
		p.metric = m
		return nil
	case !p.remat:
		return fmt.Errorf("unknown parameter %q", key)
	case key == "split":
		s, err := splitSchemeByName(val)
		if err != nil {
			return err
		}
		p.split = s
		return nil
	case key == "no-coalesce":
		flag = &p.noCoalesce
	case key == "no-bias":
		flag = &p.noBias
	case key == "no-lookahead":
		flag = &p.noLookahead
	default:
		return fmt.Errorf("unknown parameter %q", key)
	}
	if hasVal {
		return fmt.Errorf("parameter %q is a flag and takes no value", key)
	}
	*flag = true
	return nil
}

// strategies is the registry, in registration order.
var strategies = []*Strategy{
	{
		name:        "chaitin",
		spec:        "chaitin",
		description: "Chaitin-style optimistic coloring with whole-range rematerialization (the paper's Table 1 baseline)",
	},
	{
		name:        "remat",
		spec:        "remat",
		description: "the paper's allocator: per-value tags, splits, conservative coalescing, biased coloring",
		params:      strategyParams{remat: true},
	},
	{
		name:        "spill-everywhere",
		spec:        "spill-everywhere",
		description: "guaranteed-terminating baseline: every value lives in a frame slot, reloaded per use (Bouchez/Darte/Rastello)",
	},
	{
		name:        "ssa-spill",
		spec:        "ssa-spill",
		description: "SSA-form spill-everywhere: one slot per φ-congruence web, dead stores elided, sparse-liveness-pruned φs",
	},
}
