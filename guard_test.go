package lsds

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A rule of the determinism contract, that every run is bit-identical to
// the single-process reference: a site for which check holds breaks it,
// for the reason why. scope and allow name places by module-relative keys,
// each a package directory, a file or a declaration in one
// ("dir/file.go:Name"); no scope is the whole module. An allowlist entry
// is a place where the order or the clock never reaches an event, a
// frame or a digest, and maps to the reason.
type rule struct {
	name, why string
	scope     []string
	check     func(s *site) bool
	allow     map[string]string
}

// site is a checked node and where it sits.
type site struct {
	info  *types.Info
	file  string
	stack []ast.Node // from the file down to n
	n     ast.Node
	imp   string // the path n imports, if it is an import
	fn    string // the full name ("time.Now", "(net.Conn).SetDeadline") of the function n names, if any
}

// key names the top-level function or package-level variable the node
// sits in, "dir/file.go:Name".
func (s *site) key() string {
	if d, ok := s.stack[1].(*ast.FuncDecl); ok {
		return s.file + ":" + d.Name.Name
	}
	if v, ok := s.stack[min(2, len(s.stack)-1)].(*ast.ValueSpec); ok {
		return s.file + ":" + v.Names[0].Name
	}
	return s.file
}

// under reports whether key is, or lies inside, the place prefix names.
func under(key, prefix string) bool {
	return key == prefix || strings.HasPrefix(key, prefix+"/") || strings.HasPrefix(key, prefix+":")
}

// TestDeterminismGuards checks the type-checked syntax of every non-test
// package of the module against the rules, one subtest per rule and one
// line per finding: "file:line: rule: why". A function is matched by what it resolves to,
// however it is imported and whether it is called or only named.
func TestDeterminismGuards(t *testing.T) {
	clock := regexp.MustCompile(`^time\.(Now|Since|Until|Sleep|After|AfterFunc|NewTimer|NewTicker|Tick)$|\)\.Set\w*Deadline$`)
	closure := map[string][]string{} // every listed package and its dependencies
	rules := []rule{{
		name: "gob", why: "brings encoding/gob into the build; every codec here is explicit",
		check: func(s *site) bool { return !under(s.imp, "repro") && slices.Contains(closure[s.imp], "encoding/gob") },
	}, {
		name: "pure control core", why: "imports net, os, time or obs; an explorer drives the control core with none of them",
		scope: []string{"internal/distsim/control.go"},
		check: func(s *site) bool { return slices.Contains([]string{"net", "os", "time", "repro/internal/obs"}, s.imp) },
	}, {
		name: "one goroutine", why: "go statement or channel; the coordinator runs every barrier on the goroutine that calls Serve",
		scope: []string{"internal/distsim/coordinator.go", "internal/distsim/control.go",
			"internal/distsim/journal.go", "internal/distsim/checkpoint.go"},
		check: func(s *site) bool {
			_, g := s.n.(*ast.GoStmt)
			_, c := s.n.(*ast.ChanType)
			return g || c
		},
	}, {
		name: "kernel observes", why: "SetObserver, an uncalled Observe hook, a trace ring or (parsim, distsim worker) obs.Now; winsync.Group observes and times every window",
		scope: []string{"internal/parsim", "internal/distsim"},
		check: func(s *site) bool {
			if sel, ok := s.n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Observe" { // a histogram's Observe is only ever called
				call, ok := s.stack[len(s.stack)-2].(*ast.CallExpr)
				return !ok || call.Fun != sel
			}
			return strings.HasSuffix(s.fn, ").SetObserver") || s.fn == "repro/internal/obs.NewRecorder" ||
				s.fn == "repro/internal/obs.Now" && (under(s.file, "internal/parsim") || s.file == "internal/distsim/worker.go")
		},
		allow: map[string]string{
			"internal/distsim/obs.go:EnableObservability":  "the coordinator's own ring, for its serve-loop spans",
			"internal/distsim/obs.go:NewObsPiggybackBench": "the bench's stand-in for the coordinator's ring",
		},
	}, {
		name: "wall clock", why: "reads the wall clock or arms a deadline; a run's waits go through distsim's env",
		check: func(s *site) bool { return clock.MatchString(s.fn) },
		allow: map[string]string{
			"internal/distsim/env.go":              "wallClock, the one clock distsim reads; tests script it",
			"internal/obs/obs.go":                  "span and histogram timestamps, never an event time",
			"internal/chaos/chaos.go":              "the injector's delay, jitter and partition sleeps and its listener deadline",
			"internal/winsync/phold.go:spinsPerNs": "calibrates the hot-LP spin: load shaping, not a result",
			"internal/experiments":                 "the wall times the experiments report beside their results",
			"cmd/experiments/main.go:main":         "prints each experiment's wall time",
		},
	}, {
		name: "global rand", why: "imports math/rand; every draw comes from a seeded internal/rng stream",
		check: func(s *site) bool { return under(s.imp, "math/rand") },
	}, {
		name: "map range", why: "ranges over a map, whose order differs between runs",
		check: func(s *site) bool {
			if r, ok := s.n.(*ast.RangeStmt); ok {
				_, m := s.info.TypeOf(r.X).Underlying().(*types.Map)
				return m
			}
			return false
		},
		allow: map[string]string{
			"internal/distsim/coordinator.go:PerLPCounts": "each key writes its own slot",
			"internal/distsim/wire.go:marshalFrameInto":   "sorts the keys before it encodes them",
			"internal/p2p/chord.go:Leave":                 "copies a map into a map",
			"internal/queueing/queueing.go:SolveJackson":  "one add per key into its own node's rate; which bad entry the error names can vary between runs, the numbers cannot",
		},
	}}

	// One go list names each package's files (build tags applied) and
	// builds the export data the module's packages are checked against:
	// importing from source would type-check the standard library again.
	list := exec.Command("go", "list", "-export", "-deps", "-f",
		`{{.ImportPath}}	{{.Export}}	{{join .GoFiles " "}}	{{join .Deps " "}}`, "./...")
	list.Stderr = os.Stderr
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset, export, used, found := token.NewFileSet(), map[string]string{}, map[string]bool{}, map[string][]string{}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		return os.Open(export[p])
	})}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		export[f[0]], closure[f[0]] = f[1], append(strings.Fields(f[3]), f[0])
		dir, ours := strings.CutPrefix(f[0]+"/", "repro/")
		if !ours {
			continue
		}
		var files []*ast.File
		for _, name := range strings.Fields(f[2]) {
			file, err := parser.ParseFile(fset, dir+name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		s := &site{info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}}
		if _, err := conf.Check(f[0], fset, files, s.info); err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			s.file = fset.Position(file.Package).Filename
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					s.stack = s.stack[:len(s.stack)-1]
					return true
				}
				s.stack, s.n, s.imp, s.fn = append(s.stack, n), n, "", ""
				switch n := n.(type) {
				case *ast.ImportSpec:
					s.imp = strings.Trim(n.Path.Value, "\"`")
				case *ast.Ident:
					if fn, ok := s.info.Uses[n].(*types.Func); ok {
						s.fn = fn.FullName()
					}
				}
			rules:
				for _, r := range rules {
					if len(r.scope) > 0 && !slices.ContainsFunc(r.scope, func(k string) bool { return under(s.file, k) }) || !r.check(s) {
						continue
					}
					for k := range r.allow {
						if under(s.key(), k) {
							used[r.name+" "+k] = true
							continue rules
						}
					}
					found[r.name] = append(found[r.name], fmt.Sprintf("%s:%d: %s: %s", s.file, fset.Position(n.Pos()).Line, r.name, r.why))
				}
				return true
			})
		}
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, f := range found[r.name] {
				t.Error(f)
			}
			for k, reason := range r.allow {
				if !used[r.name+" "+k] || reason == "" {
					t.Errorf("%s: allowlist entry %s is unused or has no reason", r.name, k)
				}
			}
		})
	}
}
