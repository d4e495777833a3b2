package front

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flags builds a command's flag set the way its main does.
func flags(cmd string) (*flag.FlagSet, *Run) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if cmd == "lssim" {
		return fs, Lssim(fs)
	}
	return fs, Lsnode(fs)
}

// registration matches the flag-defining methods of flag.FlagSet (and
// the package-level functions of the same names).
var registration = regexp.MustCompile(`^((Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Text)(Var)?|Var|Func|BoolFunc)$`)

// TestFlagsRegisteredOnce scans the source of both commands and this
// package for flag registrations: a name bound at two call sites is two
// descriptions of one setting that can drift apart. The scan is checked
// against the flag sets themselves, so a registration it cannot see
// fails the test too.
func TestFlagsRegisteredOnce(t *testing.T) {
	sites := map[string][]string{}
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../../lssim", "../../lsnode"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in %s (%v)", dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !registration.MatchString(sel.Sel.Name) {
					return true
				}
				if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "fs" && recv.Name != "flag") {
					return true
				}
				for _, arg := range call.Args { // the name is the first string literal
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						sites[name] = append(sites[name], fset.Position(call.Pos()).String())
						break
					}
				}
				return true
			})
		}
	}
	total := 0
	for name, at := range sites {
		total += len(at)
		if len(at) > 1 {
			t.Errorf("-%s is registered at %d call sites: %v", name, len(at), at)
		}
	}
	if total > 49 {
		t.Errorf("%d flag registration call sites, want <= 49", total)
	}
	defined := map[string]bool{}
	for _, cmd := range []string{"lssim", "lsnode"} {
		fs, _ := flags(cmd)
		fs.VisitAll(func(f *flag.Flag) { defined[f.Name] = true })
	}
	for name := range defined {
		if len(sites[name]) == 0 {
			t.Errorf("-%s is defined but the source scan found no registration", name)
		}
	}
	if len(defined) != len(sites) {
		t.Errorf("the scan found %d names, the flag sets define %d", len(sites), len(defined))
	}
}

// TestSharedFlagDefaults pins the defaults of the flags both commands
// have: equal, except the three where lssim's quick in-process demo and
// lsnode's multi-process run have always differed.
func TestSharedFlagDefaults(t *testing.T) {
	differ := map[string]bool{"horizon": true, "jobs": true, "workers": true}
	sim, _ := flags("lssim")
	node, _ := flags("lsnode")
	var got []string
	sim.VisitAll(func(f *flag.Flag) {
		if g := node.Lookup(f.Name); g != nil && g.DefValue != f.DefValue {
			got = append(got, f.Name)
			if !differ[f.Name] {
				t.Errorf("-%s defaults to %q in lssim and %q in lsnode", f.Name, f.DefValue, g.DefValue)
			}
		}
	})
	sort.Strings(got)
	if len(got) != len(differ) {
		t.Errorf("shared flags with differing defaults: %v, want exactly horizon, jobs, workers", got)
	}
}

// TestValidateRejectsBadValues walks the settings that used to reach a
// panic in NewWorker, NewCoordinator or PHOLD.Install (or a run that
// could never register, or a fault plan that hung the run or was
// silently ignored): each must come back from Validate as a one-line
// error, for whichever command can be given it.
func TestValidateRejectsBadValues(t *testing.T) {
	worker := "-mode worker -own 0,1 "
	for cmd, cases := range map[string][]string{
		"lssim": {"-workers 3", "-workers 0", "-workers 16", "-delay-factor 0", "-delay-factor NaN",
			"-horizon 0", "-horizon -1", "-sim phold -workers 0", "-sim phold -delay-factor 0",
			"-sim phold -horizon -1", "-sim phold -checkpoint-at -1", "-sim phold -checkpoint-at NaN",
			"-sim distphold -chaos-drop 5", "-chaos-drop NaN", "-chaos-dup 7", "-chaos-corrupt -3",
			"-chaos-reorder 1.5", "-chaos-reset -1", "-chaos-delay -1s", "-chaos-jitter -1ms",
			"-horizon Inf", "-sim phold -horizon Inf", "-sim phold -checkpoint-at 45",
			"-sim phold -checkpoint-at 1e300", "-sim distphold -obs-every -1", "-sim distphold -rebalance -rebalance-every -4"},
		"lsnode": {"-mode worker", "-mode worker -own 1,1", "-mode worker -own 8", "-mode worker -own -1",
			"-mode worker -own 2 -lps 2", worker + "-delay-factor 0", worker + "-lps 0", worker + "-jobs -1",
			worker + "-remote 1.5", "-mode coordinator -lps 0", "-mode coordinator -lookahead 0",
			"-mode coordinator -lookahead Inf", "-mode coordinator -timeout 2e-9", "-mode coordinator -timeout -1",
			"-mode coordinator -horizon 0", "-mode coordinator -horizon Inf", "-mode coordinator -workers 0",
			"-mode coordinator -workers 9", "-mode coordinator -ckpt-every -2", "-mode coordinator -rebalance-every -3",
			"-mode coordinator -max-recoveries -1", "-mode coordinator -obs-every -1", "-mode coordinator -checkpoint c.ckpt"},
	} {
		for _, args := range cases {
			fs, r := flags(cmd)
			if err := fs.Parse(strings.Fields(args)); err != nil {
				t.Errorf("%s %s: does not parse: %v", cmd, args, err)
				continue
			}
			err := r.Validate()
			if err == nil {
				t.Errorf("%s %s: Validate accepted it", cmd, args)
			} else if strings.Contains(err.Error(), "\n") {
				t.Errorf("%s %s: error is not one line: %q", cmd, args, err)
			}
		}
	}
	// A -timeout that is no Duration at all cannot even be parsed: what
	// it would convert to is all Validate could see.
	for _, v := range []string{"NaN", "Inf", "-Inf", "1e300"} {
		if fs, _ := flags("lsnode"); fs.Parse([]string{"-timeout", v}) == nil {
			t.Errorf("lsnode -timeout %s: parsed", v)
		}
	}
	// What the bad lines differ from is accepted; phold's pool threads
	// need not divide the LPs, nor be fewer.
	for _, c := range [][2]string{{"lssim", ""}, {"lssim", "-sim phold -workers 3"},
		{"lssim", "-sim phold -workers 16"}, {"lssim", "-sim distphold -chaos-drop 1"}, {"lsnode", worker},
		{"lsnode", "-mode coordinator -checkpoint c.ckpt -journal j"}} {
		cmd, args := c[0], c[1]
		fs, r := flags(cmd)
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("%s %s: %v", cmd, args, err)
		}
	}
}
