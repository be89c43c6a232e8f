package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches expectation markers in fixture files: "// want:check".
var wantRe = regexp.MustCompile(`want:([a-z]+)`)

// fixtureAnalyzer treats every fixture package as a simulation package so
// the SimOnly checks run.
func fixtureAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return &Analyzer{
		ModRoot: root,
		ModPath: "fix",
		IsSim:   func(string) bool { return true },
	}
}

// wantedFindings scans a fixture package directory for marker comments and
// returns the expected "file:line check" set.
func wantedFindings(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				want[fmt.Sprintf("%s/%s:%d %s", pkg, e.Name(), line, m[1])] = true
			}
		}
		f.Close()
	}
	return want
}

func TestChecksAgainstFixtures(t *testing.T) {
	cases := []struct {
		pkg string
		// minimum number of findings the fixture must produce, to guard
		// against a fixture whose markers silently stopped matching.
		atLeast int
	}{
		{"maprange", 4},
		{"wallclock", 8},
		{"goroutine", 6},
		{"floatorder", 4},
		{"exhaustive", 1},
		{"noalloc", 3},
		{"poolescape", 8},
		{"obspure", 3},
		{"allow", 3},
		{"clean", 0},
	}
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			a := fixtureAnalyzer(t)
			findings, err := a.Run("./" + tc.pkg)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]bool)
			for _, f := range findings {
				key := fmt.Sprintf("%s:%d %s", filepath.ToSlash(f.Pos.Filename), f.Pos.Line, f.Check)
				got[key] = true
			}
			want := wantedFindings(t, tc.pkg)
			if len(want) < tc.atLeast {
				t.Fatalf("fixture %s declares %d markers, expected at least %d", tc.pkg, len(want), tc.atLeast)
			}
			for k := range want {
				if !got[k] {
					t.Errorf("missing finding %s", k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("unexpected finding %s", k)
				}
			}
		})
	}
}

func TestFindingString(t *testing.T) {
	a := fixtureAnalyzer(t)
	findings, err := a.Run("./floatorder")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("no findings")
	}
	s := findings[0].String()
	re := regexp.MustCompile(`^floatorder/floatorder\.go:\d+: \[[a-z]+\] .+`)
	if !re.MatchString(filepath.ToSlash(s)) {
		t.Fatalf("finding format = %q", s)
	}
}

func TestFindingsSorted(t *testing.T) {
	a := fixtureAnalyzer(t)
	findings, err := a.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(findings))
	for i, f := range findings {
		keys[i] = fmt.Sprintf("%s:%08d:%s", f.Pos.Filename, f.Pos.Line, f.Check)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("findings not sorted:\n%s", strings.Join(keys, "\n"))
	}
}

func TestSimOnlyScoping(t *testing.T) {
	// With IsSim == nil, the wallclock and goroutine checks must not run.
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{ModRoot: root, ModPath: "fix"}
	findings, err := a.Run("./wallclock", "./goroutine")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Check == "wallclock" || f.Check == "goroutine" {
			t.Errorf("SimOnly check %s ran on a non-sim package: %s", f.Check, f)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := make(map[string]bool)
	for _, c := range Checks() {
		if c.Name == "" || c.Doc == "" || (c.Run == nil && c.RunModule == nil) {
			t.Errorf("check %+v incomplete", c.Name)
		}
		if c.Severity != SevError && c.Severity != SevWarn {
			t.Errorf("check %s has no severity", c.Name)
		}
		names[c.Name] = true
	}
	for _, want := range []string{
		"maprange", "wallclock", "goroutine", "floatorder",
		"exhaustive", "noalloc", "obspure", "poolescape", "allow",
	} {
		if !names[want] {
			t.Errorf("check %s not registered", want)
		}
	}
}

// TestDefaultIsSim pins the production package classification: DES-driven
// packages are sim (SimOnly checks apply); the analyzer and the host-side
// sweep orchestrator are not.
func TestDefaultIsSim(t *testing.T) {
	isSim := DefaultIsSim("spcoh")
	for path, want := range map[string]bool{
		"spcoh/internal/sim":         true,
		"spcoh/internal/protocol":    true,
		"spcoh/internal/experiments": true,
		"spcoh/internal/scenario":    true,
		"spcoh/internal/runcfg":      true,
		"spcoh/internal/lint":        false,
		"spcoh/internal/sweep":       false,
		// An exemption must cover exactly its own subtree: a sibling that
		// merely shares the prefix stays sim.
		"spcoh/internal/sweepx": true,
		"spcoh/cmd/spsweep":     false,
		"spcoh":                 false,
	} {
		if got := isSim(path); got != want {
			t.Errorf("DefaultIsSim(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestRepoIsClean runs the production configuration over the repository
// itself: the tree must stay spvet-clean.
func TestRepoIsClean(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{
		ModRoot: root,
		ModPath: modPath,
		IsSim:   DefaultIsSim(modPath),
	}
	findings, err := a.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestParseAllow pins the suppression grammar: check names, a mandatory
// "--" separator, and a mandatory non-empty reason.
func TestParseAllow(t *testing.T) {
	cases := []struct {
		text    string
		wantErr bool
		checks  int
	}{
		{"spvet:allow noalloc -- pool refill", false, 1},
		{"spvet:allow noalloc,obspure -- two at once", false, 2},
		{"spvet:allow noalloc obspure -- space separated", false, 2},
		{"spvet:allow noalloc", true, 0},
		{"spvet:allow noalloc --", true, 0},
		{"spvet:allow noalloc --   ", true, 0},
		{"spvet:allow -- reason but no checks", true, 0},
	}
	for _, tc := range cases {
		d := parseAllow(tc.text, token.Position{})
		if (d.err != "") != tc.wantErr {
			t.Errorf("parseAllow(%q): err = %q, wantErr = %v", tc.text, d.err, tc.wantErr)
		}
		if !tc.wantErr && len(d.checks) != tc.checks {
			t.Errorf("parseAllow(%q): %d checks, want %d", tc.text, len(d.checks), tc.checks)
		}
	}
}

// TestAllowSeverities pins the meta-check's two severities: malformed
// directives are errors, typo'd check names are warnings.
func TestAllowSeverities(t *testing.T) {
	a := fixtureAnalyzer(t)
	findings, err := a.Run("./allow")
	if err != nil {
		t.Fatal(err)
	}
	var errors, warns int
	for _, f := range findings {
		if f.Check != "allow" {
			continue
		}
		switch f.Severity {
		case SevError:
			errors++
			if !strings.Contains(f.Msg, "reason") {
				t.Errorf("malformed-directive finding lacks grammar hint: %s", f)
			}
		case SevWarn:
			warns++
			if !strings.Contains(f.Msg, "nosuchcheck") {
				t.Errorf("unknown-check finding does not name the typo: %s", f)
			}
		}
	}
	if errors != 1 || warns != 1 {
		t.Fatalf("allow findings: %d errors, %d warns (want 1 and 1):\n%v", errors, warns, findings)
	}
}

// TestBaselinePartition pins the multiset matching: each entry absorbs one
// finding, by (file, check, msg) and independent of line numbers.
func TestBaselinePartition(t *testing.T) {
	mk := func(file string, line int, check, msg string) Finding {
		return Finding{Pos: token.Position{Filename: file, Line: line}, Check: check, Msg: msg}
	}
	b := &Baseline{Version: BaselineVersion, Entries: []BaselineEntry{
		{File: "cmd/x/main.go", Check: "maprange", Msg: "legacy"},
	}}
	findings := []Finding{
		mk("cmd/x/main.go", 10, "maprange", "legacy"),
		mk("cmd/x/main.go", 20, "maprange", "legacy"),
		mk("cmd/x/main.go", 30, "wallclock", "new"),
	}
	fresh, baselined := b.Partition(findings)
	if len(baselined) != 1 || baselined[0].Pos.Line != 10 {
		t.Fatalf("baselined = %v", baselined)
	}
	if len(fresh) != 2 {
		t.Fatalf("fresh = %v", fresh)
	}
}

// TestBaselineValidate pins the empty-sim-baseline policy.
func TestBaselineValidate(t *testing.T) {
	isSim := DefaultIsSim("spcoh")
	ok := &Baseline{Version: BaselineVersion, Entries: []BaselineEntry{
		{File: "cmd/spstat/main.go", Check: "maprange", Msg: "legacy"},
	}}
	if err := ok.Validate("spcoh", isSim); err != nil {
		t.Fatalf("non-sim entry rejected: %v", err)
	}
	bad := &Baseline{Version: BaselineVersion, Entries: []BaselineEntry{
		{File: "internal/protocol/node.go", Check: "exhaustive", Msg: "legacy"},
	}}
	if err := bad.Validate("spcoh", isSim); err == nil {
		t.Fatal("sim-package baseline entry accepted")
	}
}

// TestBaselineRoundTrip writes findings out and reads them back.
func TestBaselineRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "baseline.json")
	findings := []Finding{
		{Pos: token.Position{Filename: "cmd/x/main.go", Line: 3}, Check: "maprange", Msg: "m"},
		{Pos: token.Position{Filename: "cmd/a/main.go", Line: 9}, Check: "wallclock", Msg: "w"},
	}
	if err := WriteBaseline(file, findings); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 2 || b.Entries[0].File != "cmd/a/main.go" {
		t.Fatalf("round-tripped entries = %+v", b.Entries)
	}
	fresh, baselined := b.Partition(findings)
	if len(fresh) != 0 || len(baselined) != 2 {
		t.Fatalf("round-trip partition: fresh=%v baselined=%v", fresh, baselined)
	}
}

// TestRepoBaselineEmpty pins the shipped baseline: the repository tolerates
// no legacy findings at all, sim packages or otherwise.
func TestRepoBaselineEmpty(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(filepath.Join(root, ".spvet-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 0 {
		t.Fatalf("shipped baseline carries %d entries; the tree must stay clean", len(b.Entries))
	}
	if err := b.Validate(modPath, DefaultIsSim(modPath)); err != nil {
		t.Fatal(err)
	}
}

// TestNoallocAnnotationConsistency is the CI gate tying the //spcoh:noalloc
// set to the AllocsPerRun benchmark ceilings: every function whose
// zero-allocation behaviour is pinned by a benchmark test must carry the
// annotation, so the static check guards what the benchmarks measure.
func TestNoallocAnnotationConsistency(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, modPath)
	pkgs, err := loader.Load("./internal/event", "./internal/noc")
	if err != nil {
		t.Fatal(err)
	}
	// The zero-alloc ceilings asserted by internal/event/bench_test.go and
	// internal/noc/bench_test.go.
	want := map[string]bool{
		"internal/event.At":   true,
		"internal/event.AtFn": true,
		"internal/event.Step": true,
		"internal/noc.SendFn": true,
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := pkg.Dir + "." + fd.Name.Name
				if want[key] {
					if !hasMarker(fd.Doc, NoallocAnnotation) {
						t.Errorf("%s.%s has a zero-alloc benchmark ceiling but no //%s annotation",
							pkg.Dir, fd.Name.Name, NoallocAnnotation)
					}
					delete(want, key)
				}
			}
		}
	}
	for key := range want {
		t.Errorf("benchmark-pinned function %s not found", key)
	}
}
