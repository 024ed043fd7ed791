package api

// docs/API.md is the human-facing rendering of this package. This test
// keeps it honest the same way docs_check_test.go keeps README/DESIGN
// honest: every JSON field tag declared on a wire struct here, every
// typed error code, and every endpoint path must appear in the
// document, so a field added to the contract cannot ship undocumented.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// wireJSONTags parses this package's source and collects the JSON field
// names of every struct, plus the string values of every Code constant.
func wireJSONTags(t *testing.T) (tags, codes []string) {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seenTag := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, f := range n.Fields.List {
					if f.Tag == nil {
						continue
					}
					raw := strings.Trim(f.Tag.Value, "`")
					name, _, _ := strings.Cut(reflect.StructTag(raw).Get("json"), ",")
					if name != "" && name != "-" && !seenTag[name] {
						seenTag[name] = true
						tags = append(tags, name)
					}
				}
			case *ast.ValueSpec:
				if id, ok := n.Type.(*ast.Ident); ok && id.Name == "Code" {
					for _, v := range n.Values {
						if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							codes = append(codes, strings.Trim(lit.Value, `"`))
						}
					}
				}
			}
			return true
		})
	}
	if len(tags) == 0 || len(codes) == 0 {
		t.Fatalf("declaration scan found %d tags, %d codes — parser drifted from the source layout", len(tags), len(codes))
	}
	return tags, codes
}

func TestDocsAPICoversWireContract(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	mentions := func(name string) bool {
		// a field is documented if it appears backtick-quoted in prose or
		// quoted inside a JSON example
		return strings.Contains(doc, "`"+name+"`") || strings.Contains(doc, `"`+name+`"`)
	}
	tags, codes := wireJSONTags(t)
	for _, tag := range tags {
		if !mentions(tag) {
			t.Errorf("docs/API.md does not document wire field %q", tag)
		}
	}
	for _, code := range codes {
		if !mentions(code) {
			t.Errorf("docs/API.md does not document error code %q", code)
		}
	}
	if !strings.Contains(doc, "`"+EndpointUnified.Path()+"`") {
		t.Errorf("docs/API.md does not document endpoint %s", EndpointUnified.Path())
	}
}
