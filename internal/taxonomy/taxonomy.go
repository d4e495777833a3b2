// Package taxonomy encodes the paper's primary contribution: a
// taxonomy of large-scale distributed-systems simulators, covering
// both the adopted simulation model (scope, supported components,
// behavior, time base) and the implementation (engine mechanics,
// event-list structure, execution mode, job-to-thread mapping, model
// specification, input data, user interface, validation support).
//
// Every simulator personality in internal/simulators exports a Profile
// built from this vocabulary, SelfProfile is this framework's own, and
// the framework regenerates the paper's Table 1 ("Design comparison of
// surveyed Grid simulation projects") from those machine-readable
// profiles rather than from prose — see Table1 and cmd/table1.
package taxonomy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Scope is the "upper most scope" of a simulator: the class of
// problems it was designed to study.
type Scope string

// Scope values used by the surveyed simulators.
const (
	ScopeScheduling  Scope = "scheduling"
	ScopeReplication Scope = "data replication"
	ScopeTransport   Scope = "data transport"
	ScopeEconomy     Scope = "grid economy"
	ScopeGeneric     Scope = "generic LSDS"
)

// Component is one of the four component layers of a distributed
// system the taxonomy checks for.
type Component string

// The four component layers.
const (
	CompHosts      Component = "hosts"
	CompNetwork    Component = "network"
	CompMiddleware Component = "middleware"
	CompApps       Component = "applications"
)

// Behavior distinguishes deterministic from probabilistic models.
type Behavior string

// Behavior values.
const (
	Deterministic Behavior = "deterministic"
	Probabilistic Behavior = "probabilistic"
)

// Mechanics is the simulation-engine advance discipline.
type Mechanics string

// Mechanics values.
const (
	MechContinuous Mechanics = "continuous"
	MechDES        Mechanics = "discrete-event"
	MechHybrid     Mechanics = "hybrid"
)

// DESKind subdivides discrete-event simulators by how they proceed.
type DESKind string

// DESKind values.
const (
	DESEventDriven DESKind = "event-driven"
	DESTimeDriven  DESKind = "time-driven"
	DESTraceDriven DESKind = "trace-driven"
)

// Execution is the engine's use of the underlying hardware.
type Execution string

// Execution values; the paper argues for "centralized vs distributed"
// over Sulistio's "serial vs parallel".
const (
	ExecCentralized Execution = "centralized"
	ExecDistributed Execution = "distributed"
)

// QueueComplexity classifies the pending-event-list structure.
type QueueComplexity string

// QueueComplexity values.
const (
	QueueO1    QueueComplexity = "O(1)"
	QueueOLogN QueueComplexity = "O(log n)"
	QueueON    QueueComplexity = "O(n)"
)

// SpecStyle is how users specify models.
type SpecStyle string

// SpecStyle values.
const (
	SpecLanguage SpecStyle = "language"
	SpecLibrary  SpecStyle = "library"
	SpecVisual   SpecStyle = "visual"
)

// InputKind classifies accepted input data.
type InputKind string

// InputKind values.
const (
	InputGenerator InputKind = "generator"
	InputMonitored InputKind = "monitored"
)

// OutputKind classifies the user-facing output.
type OutputKind string

// OutputKind values.
const (
	OutTextual   OutputKind = "textual"
	OutGraphical OutputKind = "graphical"
)

// Validation classifies the published validation evidence.
type Validation string

// Validation values.
const (
	ValidationNone     Validation = "none"
	ValidationMath     Validation = "mathematical"
	ValidationTestbed  Validation = "testbed"
	ValidationBothKind Validation = "math+testbed"
)

// Profile is one simulator's position in the taxonomy.
type Profile struct {
	Name       string
	Motivation string // free-text motivation (LHC validation, economy, ...)

	// Simulation model.
	Scope             []Scope
	Components        []Component
	DynamicComponents bool // user-defined components at runtime
	Behavior          Behavior
	// Implementation.
	Mechanics     Mechanics
	DESKinds      []DESKind
	Execution     Execution
	MultiThreaded bool // uses every local processor
	// DynamicBalancing marks engines that re-map load at runtime —
	// e.g. live LP migration between distributed workers driven by
	// observed per-LP load (the paper's "new trend" of adapting the
	// partition instead of fixing it at startup).
	DynamicBalancing bool
	Queue            QueueComplexity
	JobMapping       string // job→thread mapping optimization, free text
	Spec             []SpecStyle
	Inputs           []InputKind
	Outputs          []OutputKind
	VisualDesign     bool
	VisualExec       bool
	Validation       Validation
}

// HasComponent reports whether the profile models the component layer.
func (p *Profile) HasComponent(c Component) bool {
	for _, x := range p.Components {
		if x == c {
			return true
		}
	}
	return false
}

// HasScope reports whether the profile covers the scope.
func (p *Profile) HasScope(s Scope) bool {
	for _, x := range p.Scope {
		if x == s {
			return true
		}
	}
	return false
}

// Validate checks internal consistency: a profile must name at least
// one scope and component, and discrete-event mechanics require at
// least one DES kind.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("taxonomy: profile without name")
	}
	if len(p.Scope) == 0 {
		return fmt.Errorf("taxonomy: %s: no scope", p.Name)
	}
	if len(p.Components) == 0 {
		return fmt.Errorf("taxonomy: %s: no components", p.Name)
	}
	if (p.Mechanics == MechDES || p.Mechanics == MechHybrid) && len(p.DESKinds) == 0 {
		return fmt.Errorf("taxonomy: %s: DES mechanics without DES kind", p.Name)
	}
	if p.Behavior == "" || p.Mechanics == "" || p.Execution == "" {
		return fmt.Errorf("taxonomy: %s: missing behavior/mechanics/execution", p.Name)
	}
	return nil
}

func joinScopes(ss []Scope) string {
	strs := make([]string, len(ss))
	for i, s := range ss {
		strs[i] = string(s)
	}
	return strings.Join(strs, ", ")
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// componentMark renders the component coverage as a compact H/N/M/A
// presence string, e.g. "H N M A" or "H N - A".
func componentMark(p *Profile) string {
	marks := []struct {
		c Component
		m string
	}{
		{CompHosts, "H"}, {CompNetwork, "N"}, {CompMiddleware, "M"}, {CompApps, "A"},
	}
	out := make([]string, len(marks))
	for i, mk := range marks {
		if p.HasComponent(mk.c) {
			out[i] = mk.m
		} else {
			out[i] = "-"
		}
	}
	return strings.Join(out, " ")
}

func joinKinds(ks []DESKind) string {
	strs := make([]string, len(ks))
	for i, k := range ks {
		strs[i] = string(k)
	}
	return strings.Join(strs, ", ")
}

func joinSpecs(ss []SpecStyle) string {
	strs := make([]string, len(ss))
	for i, s := range ss {
		strs[i] = string(s)
	}
	return strings.Join(strs, ", ")
}

func joinInputs(is []InputKind) string {
	strs := make([]string, len(is))
	for i, k := range is {
		strs[i] = string(k)
	}
	return strings.Join(strs, ", ")
}

// Table1 renders the paper's design-comparison matrix for the given
// profiles: one column block per simulator, one row per taxonomy axis.
// Profiles are validated first; an invalid profile panics, because the
// table is generated output and must never silently misreport.
func Table1(profiles []*Profile) *metrics.Table {
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			panic(err)
		}
	}
	t := metrics.NewTable(
		"Table 1. Design comparison of surveyed Grid simulation projects.",
		append([]string{"axis"}, names(profiles)...)...)
	row := func(axis string, get func(*Profile) string) {
		cells := make([]string, 0, len(profiles)+1)
		cells = append(cells, axis)
		for _, p := range profiles {
			cells = append(cells, get(p))
		}
		t.AddRow(cells...)
	}
	row("scope", func(p *Profile) string { return joinScopes(p.Scope) })
	row("components (H N M A)", componentMark)
	row("dynamic components", func(p *Profile) string { return yesNo(p.DynamicComponents) })
	row("behavior", func(p *Profile) string { return string(p.Behavior) })
	row("mechanics", func(p *Profile) string { return string(p.Mechanics) })
	row("DES kind", func(p *Profile) string { return joinKinds(p.DESKinds) })
	row("execution", func(p *Profile) string { return string(p.Execution) })
	row("multi-threaded", func(p *Profile) string { return yesNo(p.MultiThreaded) })
	row("dynamic load balancing", func(p *Profile) string { return yesNo(p.DynamicBalancing) })
	row("event queue", func(p *Profile) string { return string(p.Queue) })
	row("job mapping", func(p *Profile) string { return p.JobMapping })
	row("model spec", func(p *Profile) string { return joinSpecs(p.Spec) })
	row("input data", func(p *Profile) string { return joinInputs(p.Inputs) })
	row("visual design", func(p *Profile) string { return yesNo(p.VisualDesign) })
	row("visual execution", func(p *Profile) string { return yesNo(p.VisualExec) })
	row("validation", func(p *Profile) string { return string(p.Validation) })
	return t
}

func names(profiles []*Profile) []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// Diff reports the axes on which two profiles differ, as "axis: a vs
// b" strings in a stable order — the pairwise comparison mode of the
// critical analysis.
func Diff(a, b *Profile) []string {
	var diffs []string
	add := func(axis, av, bv string) {
		if av != bv {
			diffs = append(diffs, fmt.Sprintf("%s: %s vs %s", axis, av, bv))
		}
	}
	add("scope", joinScopes(a.Scope), joinScopes(b.Scope))
	add("components", componentMark(a), componentMark(b))
	add("dynamic components", yesNo(a.DynamicComponents), yesNo(b.DynamicComponents))
	add("behavior", string(a.Behavior), string(b.Behavior))
	add("mechanics", string(a.Mechanics), string(b.Mechanics))
	add("DES kind", joinKinds(a.DESKinds), joinKinds(b.DESKinds))
	add("execution", string(a.Execution), string(b.Execution))
	add("multi-threaded", yesNo(a.MultiThreaded), yesNo(b.MultiThreaded))
	add("dynamic load balancing", yesNo(a.DynamicBalancing), yesNo(b.DynamicBalancing))
	add("event queue", string(a.Queue), string(b.Queue))
	add("job mapping", a.JobMapping, b.JobMapping)
	add("model spec", joinSpecs(a.Spec), joinSpecs(b.Spec))
	add("input data", joinInputs(a.Inputs), joinInputs(b.Inputs))
	add("visual design", yesNo(a.VisualDesign), yesNo(b.VisualDesign))
	add("visual execution", yesNo(a.VisualExec), yesNo(b.VisualExec))
	add("validation", string(a.Validation), string(b.Validation))
	sort.Strings(diffs)
	return diffs
}

// SelfProfile positions this framework in its own taxonomy — the
// "future trends" checklist of the paper: generic scope, all four
// component layers, dynamic components, both input kinds, pluggable
// O(1) queues, multi-threaded/distributed execution, and validation
// against both mathematics (queueing theory, E6) and the published
// testbed study (E7). Its models are specified as a library: the
// internal/* substrates, which every personality, experiment and
// example calls directly.
func SelfProfile() *Profile {
	return &Profile{
		Name:              "lsds (this work)",
		Motivation:        "generic LSDS simulation: reproduce the surveyed designs under one engine",
		Scope:             []Scope{ScopeGeneric, ScopeScheduling, ScopeReplication, ScopeTransport, ScopeEconomy},
		Components:        []Component{CompHosts, CompNetwork, CompMiddleware, CompApps},
		DynamicComponents: true,
		Behavior:          Probabilistic,
		Mechanics:         MechDES,
		DESKinds:          []DESKind{DESEventDriven, DESTimeDriven, DESTraceDriven},
		Execution:         ExecDistributed,
		MultiThreaded:     true,
		DynamicBalancing:  true,
		Queue:             QueueO1,
		JobMapping:        "goroutine active objects; pooled LP workers",
		Spec:              []SpecStyle{SpecLibrary},
		Inputs:            []InputKind{InputGenerator, InputMonitored},
		Outputs:           []OutputKind{OutTextual, OutGraphical},
		Validation:        ValidationBothKind,
	}
}
