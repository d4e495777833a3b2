package taxonomy

import (
	"strings"
	"testing"
)

func sample(name string) *Profile {
	return &Profile{
		Name:       name,
		Scope:      []Scope{ScopeScheduling},
		Components: []Component{CompHosts, CompNetwork},
		Behavior:   Probabilistic,
		Mechanics:  MechDES,
		DESKinds:   []DESKind{DESEventDriven},
		Execution:  ExecCentralized,
		Queue:      QueueOLogN,
		Spec:       []SpecStyle{SpecLibrary},
		Inputs:     []InputKind{InputGenerator},
		Outputs:    []OutputKind{OutTextual},
		Validation: ValidationNone,
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample("X").Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Profile){
		"no name":       func(p *Profile) { p.Name = "" },
		"no scope":      func(p *Profile) { p.Scope = nil },
		"no components": func(p *Profile) { p.Components = nil },
		"DES w/o kind":  func(p *Profile) { p.DESKinds = nil },
		"no behavior":   func(p *Profile) { p.Behavior = "" },
	}
	for name, mutate := range cases {
		p := sample("X")
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestHasComponentAndScope(t *testing.T) {
	p := sample("X")
	if !p.HasComponent(CompHosts) || p.HasComponent(CompApps) {
		t.Fatal("HasComponent")
	}
	if !p.HasScope(ScopeScheduling) || p.HasScope(ScopeEconomy) {
		t.Fatal("HasScope")
	}
}

func TestTable1Rendering(t *testing.T) {
	a, b := sample("Alpha"), sample("Beta")
	b.Queue = QueueO1
	b.VisualDesign = true
	tbl := Table1([]*Profile{a, b})
	out := tbl.String()
	for _, want := range []string{
		"Table 1", "Alpha", "Beta", "scope", "event queue",
		"O(log n)", "O(1)", "validation", "H N - -",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1PanicsOnInvalid(t *testing.T) {
	bad := sample("Bad")
	bad.Scope = nil
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Table1([]*Profile{bad})
}

func TestDiff(t *testing.T) {
	a, b := sample("A"), sample("B")
	if d := Diff(a, b); len(d) != 0 {
		t.Fatalf("identical profiles diff: %v", d)
	}
	b.Queue = QueueO1
	b.Execution = ExecDistributed
	d := Diff(a, b)
	if len(d) != 2 {
		t.Fatalf("diff = %v", d)
	}
	joined := strings.Join(d, "\n")
	if !strings.Contains(joined, "event queue") || !strings.Contains(joined, "execution") {
		t.Fatalf("diff = %v", d)
	}
}

func TestSelfProfile(t *testing.T) {
	p := SelfProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The framework must tick the paper's "future trends" boxes:
	// generic scope, all four components, O(1) queue availability,
	// distributed execution, and both validation kinds.
	if !p.HasScope("generic LSDS") {
		t.Fatal("self profile not generic")
	}
	if len(p.Components) != 4 {
		t.Fatal("self profile must cover all four component layers")
	}
	if p.Queue != "O(1)" || p.Execution != "distributed" || p.Validation != "math+testbed" {
		t.Fatalf("self profile = %+v", p)
	}
}
