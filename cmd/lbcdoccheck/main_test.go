package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFlagsViolations builds a scratch module tree with one
// undocumented package and undocumented exported identifiers in a root
// "lbcast" package, and checks both classes are reported.
func TestCheckFlagsViolations(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "lbcast.go"), `// Package lbcast is documented.
package lbcast

// Documented is fine.
func Documented() {}

func Undocumented() {}

type Bare struct{}

const Loose = 1
`)
	write(t, filepath.Join(dir, "internal", "mystery", "m.go"), `package mystery

// F is documented, but the package is not.
func F() {}
`)
	violations, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(violations, "\n")
	for _, want := range []string{
		"package mystery has no package doc comment",
		"function Undocumented",
		"type Bare",
		"value Loose",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing violation %q in:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "Documented") {
		t.Errorf("documented function flagged:\n%s", joined)
	}
}

// TestCheckCleanTree checks a fully documented tree passes.
func TestCheckCleanTree(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "lbcast.go"), `// Package lbcast is documented.
package lbcast

// Exported const group.
const (
	A = 1
	B = 2
)

// T is documented.
type T struct{}

// M is documented.
func (T) M() {}

// unexported needs no doc.
func helper() {}
`)
	violations, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("unexpected violations: %v", violations)
	}
}

// TestCheckDocRefs runs one-line DESIGN.md documents against a scratch
// module: references resolve against top-level declarations, fields and
// methods (direct, promoted, or through an alias); package main,
// benchmark/, unknown qualifiers, file names and fenced blocks are ignored.
func TestCheckDocRefs(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "internal", "eval", "e.go"), `// Package eval is documented.
package eval

type Base struct{ Shared int }
type Spec struct {
	Base
	Rounds int
	hidden bool
}
type Alias = Spec
type Runner interface{ Step() }

func (s *Spec) Run() {}
func New()           {}
`)
	write(t, filepath.Join(dir, "cmd", "tool", "main.go"), "// Command tool is documented.\npackage main\n\nfunc helper() {}\n")
	write(t, filepath.Join(dir, "benchmark", "p", "p.go"), "// Package probe is documented.\npackage probe\n\nfunc Only() {}\n")
	for _, tc := range []struct{ doc, want string }{ // want "" means clean
		{"`eval.New`, `eval.New()`, `eval.New(g, f)`, `eval.Spec`", ""},
		{"`Spec.Rounds`, `Spec.hidden`, `Spec.Run()`, `Spec.Shared`, `Spec.Base`", ""},
		{"`Alias.Rounds`, `Runner.Step`, `eval.Spec.Rounds`", ""},
		{"`main.helper`, `eval.go`, `s.spec.Gone`, `probe.Gone`, `probe.Only`", ""},
		{"```\n`eval.Gone`\n```", ""},
		{"`eval.Gone`", "DESIGN.md:1: `eval.Gone`: eval has no declaration or member Gone"},
		{"`Spec.Workers()`", "DESIGN.md:1: `Spec.Workers`: Spec has no declaration or member Workers"},
		{"`eval.Spec.Workers`", "Spec has no declaration or member Workers"},
		{"`eval.Gone.Rounds`", "eval has no declaration or member Gone"},
		{"`Alias.Gone`", "Alias has no declaration or member Gone"},
		{"text\n\n`Runner.Step` `Runner.Gone`", "DESIGN.md:3: `Runner.Gone`"},
	} {
		write(t, filepath.Join(dir, "DESIGN.md"), tc.doc)
		violations, err := check(dir)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(violations, "\n")
		if tc.want == "" && len(violations) != 0 || tc.want != "" && (len(violations) != 1 || !strings.Contains(joined, tc.want)) {
			t.Errorf("%q: violations\n%s\nwant %q", tc.doc, joined, tc.want)
		}
	}
}

// TestCheckDocPaths runs one-line DESIGN.md documents against a scratch
// tree: backticked paths resolve from the root or, as package-relative
// shorthand, from internal/, with optional line suffixes and globs; spans
// whose first segment is no directory there are not paths.
func TestCheckDocPaths(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "internal", "flood", "plan.go"), "// Package flood is documented.\npackage flood\n")
	write(t, filepath.Join(dir, "testdata", "golden", "a.sha256"), "")
	for _, tc := range []struct{ doc, want string }{ // want "" means clean
		{"`internal/flood/plan.go`, `flood/plan.go:12`, `internal/flood/plan.go:3-9`", ""},
		{"`testdata/golden/`, `testdata/`, `testdata/golden/*.sha256`, `internal/flood`", ""},
		{"`math/rand`, `session/algo1/figure1a/early`, `rounds=12/36`, `/v1/decide`, `lbcast/internal/gone`", ""},
		{"`internal/flood/gone.go`", "DESIGN.md:1: `internal/flood/gone.go`: no such path in the repository"},
		{"`flood/gone.go:4`", "`flood/gone.go:4`: no such path"},
		{"`testdata/silver/`", "`testdata/silver/`: no such path"},
		{"`testdata/golden/*.json`", "`testdata/golden/*.json`: no such path"},
	} {
		write(t, filepath.Join(dir, "DESIGN.md"), tc.doc)
		violations, err := check(dir)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(violations, "\n")
		if tc.want == "" && len(violations) != 0 || tc.want != "" && (len(violations) != 1 || !strings.Contains(joined, tc.want)) {
			t.Errorf("%q: violations\n%s\nwant %q", tc.doc, joined, tc.want)
		}
	}
}

// TestCheckRepository pins the real repository to stay clean, mirroring
// the CI gate.
func TestCheckRepository(t *testing.T) {
	violations, err := check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("repository has undocumented declarations:\n%s", strings.Join(violations, "\n"))
	}
}
