// Command lbcdoccheck enforces the repository's documentation contract in
// CI (DESIGN.md §1, ISSUE 3 satellite):
//
//   - every package in the module — the public lbcast root, every
//     internal/ package, every command, every example — must carry a
//     package doc comment;
//   - every exported top-level identifier of the public lbcast API (the
//     root package: types, functions, methods, constants, variables) must
//     carry a doc comment;
//   - every backticked code reference `Q.Name` or `Q.Name()` in DESIGN.md,
//     README.md and EXPERIMENTS.md, where Q is a package or type declared
//     in the module outside benchmark/, must name a top-level declaration
//     of package Q or a field or method of type Q;
//   - every backticked repository path in those files
//     (`internal/flood/plan.go`, `testdata/golden/`, or package-relative
//     under internal/, `flood/wire.go:12`) must exist.
//
// It exits non-zero listing each violation as file:line. Run it from the
// module root:
//
//	go run ./cmd/lbcdoccheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	// The identifier-level gate is keyed on the module root ("."), so
	// running from anywhere else would silently skip it — refuse instead.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "lbcdoccheck: no go.mod in the current directory; run from the module root")
		os.Exit(2)
	}
	violations, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbcdoccheck:", err)
		os.Exit(2)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println(v)
		}
		fmt.Fprintf(os.Stderr, "lbcdoccheck: %d violations\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("lbcdoccheck: all packages and exported lbcast identifiers documented, all doc code references resolve")
}

// check walks the module tree rooted at root and returns all violations.
func check(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == ".git" || name == ".github" {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var violations []string
	syms := &symbols{names: map[string]map[string]bool{}, embeds: map[string][]string{}}
	for _, dir := range dirs {
		vs, err := checkDir(root, dir, syms)
		if err != nil {
			return nil, err
		}
		violations = append(violations, vs...)
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		vs, err := checkDocRefs(filepath.Join(root, doc), doc, syms)
		if err != nil {
			return nil, err
		}
		violations = append(violations, vs...)
	}
	return violations, nil
}

// checkDir parses the non-test package in dir, if any, and reports its
// violations: a missing package comment, and — for the root lbcast
// package — every undocumented exported declaration. Packages outside
// benchmark/ and other than main are indexed into syms.
func checkDir(root, dir string, syms *symbols) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	indexed := rel != "benchmark" && !strings.HasPrefix(rel, "benchmark"+string(filepath.Separator))
	var violations []string
	for name, pkg := range pkgs {
		if !hasPackageDoc(pkg) {
			violations = append(violations, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
		// Identifier-level enforcement covers the public surface: the
		// root lbcast package.
		if dir == root && name == "lbcast" {
			violations = append(violations, checkExported(fset, pkg)...)
		}
		if indexed && name != "main" {
			syms.add(name, pkg)
		}
	}
	return violations, nil
}

// symbols maps each package and type name to the names it declares: a
// package's top-level declarations, a type's fields and methods. Scopes
// sharing a name merge. embeds lists the named types a type embeds,
// aliases, or is defined from; their members count as its own.
type symbols struct {
	names  map[string]map[string]bool
	embeds map[string][]string
}

// declare records name in scope q, creating the scope on first use.
func (s *symbols) declare(q, name string) {
	if s.names[q] == nil {
		s.names[q] = map[string]bool{}
	}
	s.names[q][name] = true
}

// add indexes every declaration of package pkg.
func (s *symbols) add(pkgName string, pkg *ast.Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				q := pkgName
				if d.Recv != nil {
					q = typeName(d.Recv.List[0].Type)
				}
				s.declare(q, d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						s.declare(pkgName, sp.Name.Name)
						s.addType(sp.Name.Name, sp.Type)
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							s.declare(pkgName, n.Name)
						}
					}
				}
			}
		}
	}
}

// addType indexes the fields or interface methods of type t, and the
// named types it embeds or is defined from.
func (s *symbols) addType(t string, expr ast.Expr) {
	s.declare(t, "") // a known scope even without members of its own
	var fields *ast.FieldList
	switch tt := expr.(type) {
	case *ast.StructType:
		fields = tt.Fields
	case *ast.InterfaceType:
		fields = tt.Methods
	default:
		s.embeds[t] = append(s.embeds[t], typeName(expr))
		return
	}
	for _, fd := range fields.List {
		for _, n := range fd.Names {
			s.declare(t, n.Name)
		}
		if len(fd.Names) == 0 {
			s.declare(t, typeName(fd.Type))
			s.embeds[t] = append(s.embeds[t], typeName(fd.Type))
		}
	}
}

// typeName returns the bare name of a named type expression ("" for
// literal types).
func typeName(expr ast.Expr) string {
	for {
		switch tt := expr.(type) {
		case *ast.Ident:
			return tt.Name
		case *ast.SelectorExpr:
			return tt.Sel.Name
		case *ast.StarExpr:
			expr = tt.X
		case *ast.IndexExpr:
			expr = tt.X
		case *ast.IndexListExpr:
			expr = tt.X
		default:
			return ""
		}
	}
}

// resolves reports whether scope q declares name, directly or through the
// types it embeds.
func (s *symbols) resolves(q, name string, seen map[string]bool) bool {
	if seen[q] {
		return false
	}
	seen[q] = true
	if s.names[q][name] {
		return true
	}
	for _, e := range s.embeds[q] {
		if s.resolves(e, name, seen) {
			return true
		}
	}
	return false
}

var (
	// fencedBlock matches a fenced code block, fences included.
	fencedBlock = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```[^\n]*$")
	// codeSpan matches one inline code span; a span that wraps a line keeps
	// its newline and never looks like a reference.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// codeRef matches a dotted identifier chain with an optional call:
	// `eval.Spec`, `Flooder.DeliverDelta()`, `eval.Spec.Rounds`.
	codeRef = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+(\([^()]*\))?$`)
	// repoPath matches a slash-separated path with an optional :line or
	// :line-line suffix.
	repoPath = regexp.MustCompile(`^([\w.*-]+(?:/[\w.*-]+)+/?|[\w.*-]+/)(?::\d+(?:-\d+)?)?$`)
	// fileExts make a span such as `lbcast.go` a file name, not a reference.
	fileExts = map[string]bool{"go": true, "md": true, "json": true, "mod": true, "yml": true, "sh": true, "txt": true}
)

// checkDocRefs reports every code reference in the markdown file at path
// (called name in messages) whose qualifier is a known scope that does not
// declare the name after it, and every repository path that does not exist
// (see missingPath; the file's directory is the repository root). Fenced
// code blocks are skipped; a missing file is not an error.
func checkDocRefs(path, name string, syms *symbols) ([]string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	text := fencedBlock.ReplaceAllStringFunc(string(data), func(b string) string {
		return strings.Repeat("\n", strings.Count(b, "\n")) // keep line numbers
	})
	var violations []string
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		ref := text[m[2]:m[3]]
		if missingPath(filepath.Dir(path), ref) {
			violations = append(violations, fmt.Sprintf("%s:%d: `%s`: no such path in the repository",
				name, strings.Count(text[:m[0]], "\n")+1, ref))
			continue
		}
		if !codeRef.MatchString(ref) {
			continue
		}
		ref, _, _ = strings.Cut(ref, "(")
		parts := strings.Split(ref, ".")
		if fileExts[parts[len(parts)-1]] {
			continue
		}
		for k := 0; k+1 < len(parts); k++ {
			if _, known := syms.names[parts[k]]; known && !syms.resolves(parts[k], parts[k+1], map[string]bool{}) {
				violations = append(violations, fmt.Sprintf("%s:%d: `%s`: %s has no declaration or member %s",
					name, strings.Count(text[:m[0]], "\n")+1, ref, parts[k], parts[k+1]))
				break
			}
		}
	}
	return violations, nil
}

// missingPath reports whether ref names a repository path that does not
// exist. A span is a path when its first segment is a directory at the
// repository root or, as package-relative shorthand, under internal/;
// anything else with a slash (benchmark names, ratios, import paths) is not.
// Globs resolve when they match something.
func missingPath(root, ref string) bool {
	m := repoPath.FindStringSubmatch(ref)
	if m == nil {
		return false
	}
	p := filepath.FromSlash(strings.TrimSuffix(m[1], "/"))
	first, _, _ := strings.Cut(m[1], "/")
	isPath := false
	for _, base := range []string{root, filepath.Join(root, "internal")} {
		if fi, err := os.Stat(filepath.Join(base, first)); err != nil || !fi.IsDir() {
			continue
		}
		isPath = true
		if found, _ := filepath.Glob(filepath.Join(base, p)); len(found) > 0 {
			return false
		}
	}
	return isPath
}

// hasPackageDoc reports whether any file of the package documents the
// package clause.
func hasPackageDoc(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true
		}
	}
	return false
}

// checkExported reports every exported top-level declaration of pkg that
// lacks a doc comment. For grouped const/var/type declarations, a comment
// on either the group or the individual spec satisfies the contract.
func checkExported(fset *token.FileSet, pkg *ast.Package) []string {
	var violations []string
	report := func(pos token.Pos, kind, name string) {
		violations = append(violations, fmt.Sprintf("%s: exported %s %s has no doc comment",
			fset.Position(pos), kind, name))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedRecv(d) {
					continue
				}
				if d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), kind, d.Name.Name)
				}
			case *ast.GenDecl:
				groupDoc := d.Doc != nil
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
							report(sp.Pos(), "type", sp.Name.Name)
						}
					case *ast.ValueSpec:
						documented := groupDoc || sp.Doc != nil || sp.Comment != nil
						for _, n := range sp.Names {
							if n.IsExported() && !documented {
								report(sp.Pos(), "value", n.Name)
							}
						}
					}
				}
			}
		}
	}
	return violations
}

// exportedRecv reports whether a method's receiver type is exported (or
// the decl is a plain function). Methods on unexported types are not part
// of the public surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}
