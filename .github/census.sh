#!/usr/bin/env bash
# Dead-code census of internal/: prints every func and method declared in
# a non-test file under internal/ that no main package links, one
# "pkg.Func" / "pkg.Recv.Method" per line, sorted.
#
# Every main package (cmd/*, examples/*, bench) is built with inlining
# off (-gcflags=all=-l), so the linker drops only what no root reaches.
# The symbols left in the binaries (go tool nm) are compared with what
# go/parser finds declared. A name printed here that is not on
# .github/census-keep.txt is dead code; CI diffs the two.
#
# Run from the module root: bash .github/census.sh
set -euo pipefail
export LC_ALL=C # byte order, so the output and the keep-list sort alike

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin" "$work/lister"

cat > "$work/lister/main.go" <<'GO'
package main // prints "repro/internal/pkg.Func" / "...pkg.Recv.Method" for non-test files

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	err := filepath.Walk("internal", func(p string, fi os.FileInfo, err error) error {
		if err != nil || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
				name := fd.Name.Name
				if fd.Recv != nil {
					t := fd.Recv.List[0].Type
					if s, ok := t.(*ast.StarExpr); ok {
						t = s.X
					}
					name = t.(*ast.Ident).Name + "." + name
				}
				fmt.Printf("repro/%s.%s\n", filepath.ToSlash(filepath.Dir(p)), name)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
GO

for d in cmd/* examples/* bench; do
	go build -gcflags=all=-l -o "$work/bin/$(echo "$d" | tr / _)" "./$d"
done
for b in "$work"/bin/*; do go tool nm "$b"; done |
	awk '$2 == "T" || $2 == "t" {print $3}' | grep '^repro/internal/' |
	sed -E 's/\(\*([A-Za-z0-9_]+)\)/\1/; s/\[[^]]*\]//g; s/\.func[0-9.]+$//' |
	sort -u > "$work/linked.txt"
go run "$work/lister/main.go" | sort -u > "$work/declared.txt"
comm -23 "$work/declared.txt" "$work/linked.txt" | sed 's#^repro/internal/##'
