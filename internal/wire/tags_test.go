package wire

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// registryRow matches a row of ARCHITECTURE.md's tag registry: the plane's
// package, then its range, "0xLO–0xHI" or one tag alone.
var registryRow = regexp.MustCompile("^\\|\\s*`(\\w+)`\\s*\\|\\s*`0x([0-9A-Fa-f]{2})(?:–0x([0-9A-Fa-f]{2}))?`\\s*\\|")

// tagConst is one `tag…` constant a package declares with a hex value.
type tagConst struct {
	pkg, name, pos string
	value          uint64
}

// TestTagRegistry: every body tag in the module — a constant named tag…
// with a hex value, in a non-test file — lies in the range ARCHITECTURE.md's
// registry gives its package, and no two tags share a value, so the first
// byte of a body names one message.
func TestTagRegistry(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	ranges := map[string][2]uint64{}
	for _, line := range strings.Split(string(doc), "\n") {
		m := registryRow.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		lo, _ := strconv.ParseUint(m[2], 16, 8)
		hi := lo
		if m[3] != "" {
			hi, _ = strconv.ParseUint(m[3], 16, 8)
		}
		ranges[m[1]] = [2]uint64{lo, hi}
	}
	tags := moduleTags(t, root)
	if len(ranges) == 0 || len(tags) == 0 {
		t.Fatalf("found %d registry rows and %d tags; the registry table or the codecs moved", len(ranges), len(tags))
	}

	byValue := map[uint64][]tagConst{}
	for _, c := range tags {
		byValue[c.value] = append(byValue[c.value], c)
		r, ok := ranges[c.pkg]
		switch {
		case !ok:
			t.Errorf("%s: %s.%s = %#x, and the registry has no row for %s", c.pos, c.pkg, c.name, c.value, c.pkg)
		case c.value < r[0] || c.value > r[1]:
			t.Errorf("%s: %s.%s = %#x lies outside %s's range %#x–%#x", c.pos, c.pkg, c.name, c.value, c.pkg, r[0], r[1])
		}
	}
	for value, cs := range byValue {
		if len(cs) > 1 {
			var names []string
			for _, c := range cs {
				names = append(names, fmt.Sprintf("%s.%s (%s)", c.pkg, c.name, c.pos))
			}
			t.Errorf("tag %#x is declared %d times: %s", value, len(cs), strings.Join(names, ", "))
		}
	}
}

// moduleTags parses every non-test Go file under root and returns its tag
// constants, in file order.
func moduleTags(t *testing.T, root string) []tagConst {
	t.Helper()
	var tags []tagConst
	for _, c := range moduleConsts(t, root, "tag", token.INT) {
		if !strings.HasPrefix(strings.ToLower(c.lit), "0x") {
			continue
		}
		v, err := strconv.ParseUint(c.lit[2:], 16, 64)
		if err != nil {
			t.Fatalf("%s: %s = %s: %v", c.pos, c.name, c.lit, err)
		}
		tags = append(tags, tagConst{pkg: c.pkg, name: c.name, pos: c.pos, value: v})
	}
	return tags
}

// constLit is one constant a package declares with a literal value.
type constLit struct {
	pkg, name, pos, lit string
}

// moduleConsts parses every non-test Go file under root and returns, in
// file order, the constants whose name starts with prefix and whose value
// is a literal of the given kind.
func moduleConsts(t *testing.T, root, prefix string, kind token.Token) []constLit {
	t.Helper()
	var out []constLit
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, prefix) || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == kind {
						out = append(out, constLit{pkg: f.Name.Name, name: name.Name, pos: fset.Position(name.Pos()).String(), lit: lit.Value})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWireStringTable: the static string table repeats no entry, and every
// rpc method name the module registers — each Method… constant of a
// non-test file — is in it exactly once, so a call says its method in one
// byte. The stack's own strings open the table.
func TestWireStringTable(t *testing.T) {
	index := map[string]int{}
	for i, s := range staticStrings {
		if j, ok := index[s]; ok {
			t.Errorf("%q is entry %d and entry %d", s, j, i)
		}
		index[s] = i
	}
	stack := []string{"rpc.req", "rpc.rep", "rpc.ann", "method", "error", "ch.epoch", "ch.transparencies"}
	if !slices.Equal(staticStrings[:len(stack)], stack) {
		t.Errorf("the table opens with %q, want the stack's strings %q", staticStrings[:len(stack)], stack)
	}
	methods := moduleConsts(t, filepath.Join("..", ".."), "Method", token.STRING)
	if len(methods) < 30 {
		t.Fatalf("found %d Method constants; the services moved", len(methods))
	}
	for _, c := range methods {
		name, err := strconv.Unquote(c.lit)
		if err != nil {
			t.Fatalf("%s: %s = %s: %v", c.pos, c.name, c.lit, err)
		}
		if _, ok := index[name]; !ok {
			t.Errorf("%s: %s.%s = %q is not in the static string table", c.pos, c.pkg, c.name, name)
		}
	}
}
