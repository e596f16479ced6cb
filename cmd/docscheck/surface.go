package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// allowed lists the exported names under internal/ that stay without a
// non-test user, each with the reason it stays.
var allowed = map[string]string{
	"geom.RotZ":          "completes the rotation constructors: the geom tests build yaw-only poses with it",
	"geom.IdentityPose":  "the Pose group's identity, the start pose of the geom, kfusion and elasticfusion tests",
	"geom.RotationAngle": "the rotation half of the pose error the geom, traj and sensor tests assert",
	"param.Space.With":   "sets one named parameter of a configuration, snapped to its levels, for the param and slambench tests",
}

// surfaceProblems type-checks the non-test files of the module at root and
// of the modules one directory below it (bench/), and returns, sorted, one
// message per exported name declared in an internal/ package that no
// non-test file uses: a package-level name, or a method or field of a
// package-level type. A use in the name's own package counts. A method
// also counts as used when *T implements an interface with that method,
// since a call through the interface reaches it. Names in allow are not
// reported; an allowed name that is used or no longer declared is.
func surfaceProblems(root string, allow map[string]string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := listPackages(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	declared := make(map[types.Object]string) // exported name → its spelling in messages
	used := make(map[types.Object]bool)
	// Interfaces whose methods the standard library calls without the
	// checked code naming them, then every interface the code names.
	ifaces := map[types.Type]bool{types.Universe.Lookup("error").Type(): true}
	for _, name := range []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler"} {
		i := strings.LastIndex(name, ".")
		p, err := std.Import(name[:i])
		if err != nil {
			return nil, err
		}
		ifaces[p.Scope().Lookup(name[i+1:]).Type()] = true
	}
	for _, lp := range pkgs {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Types:      make(map[ast.Expr]types.TypeAndValue),
		}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		if strings.Contains("/"+lp.ImportPath+"/", "/internal/") {
			declare(pkg, declared)
		}
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range info.Selections {
			used[origin(sel.Obj())] = true
		}
		for _, tv := range info.Types {
			if types.IsInterface(tv.Type) && !isGeneric(tv.Type) {
				ifaces[tv.Type] = true
			}
		}
	}

	var problems []string
	seen := make(map[string]bool)
	for obj, name := range declared {
		seen[name] = true
		_, ok := allow[name]
		hasUser := used[obj] || satisfiesInterface(obj, ifaces)
		switch {
		case hasUser && ok:
			problems = append(problems, name+" is allow-listed but has a user; drop it from the allow-list")
		case !hasUser && !ok:
			pos := fset.Position(obj.Pos())
			rel, _ := filepath.Rel(root, pos.Filename) // every checked file is under root
			problems = append(problems, fmt.Sprintf("%s:%d: %s is exported but no non-test file uses it; delete or unexport it",
				filepath.ToSlash(rel), pos.Line, name))
		}
	}
	for name := range allow {
		if !seen[name] {
			problems = append(problems, name+" is allow-listed but not declared; drop it from the allow-list")
		}
	}
	slices.Sort(problems)
	return problems, nil
}

// listedPackage is the part of `go list -json` output the rule reads.
type listedPackage struct {
	ImportPath, Dir string
	Standard        bool
	GoFiles         []string
}

// listPackages lists the non-standard packages the modules' packages are
// built from, each once, in dependency order.
func listPackages(root string) ([]listedPackage, error) {
	nested, err := filepath.Glob(filepath.Join(root, "*", "go.mod"))
	if err != nil {
		return nil, err
	}
	var pkgs []listedPackage
	seen := make(map[string]bool)
	for _, mod := range append([]string{filepath.Join(root, "go.mod")}, nested...) {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir, cmd.Stderr = filepath.Dir(mod), os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", cmd.Dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listedPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("go list in %s: %v", cmd.Dir, err)
			}
			if !p.Standard && len(p.GoFiles) > 0 && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare records pkg's exported names in declared, spelled package.Name,
// or package.Type.Name for a method, a field or an interface method.
func declare(pkg *types.Package, declared map[types.Object]string) {
	add := func(obj types.Object, name string) {
		if obj.Exported() {
			declared[obj] = name
		}
	}
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		add(obj, pkg.Name()+"."+name)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		prefix := pkg.Name() + "." + name + "."
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			add(named.Method(i), prefix+named.Method(i).Name())
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				add(u.Field(i), prefix+u.Field(i).Name())
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				add(u.ExplicitMethod(i), prefix+u.ExplicitMethod(i).Name())
			}
		}
	}
}

// origin maps a use of an instantiated generic method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0
}

// satisfiesInterface reports whether obj is a method of a concrete type T
// where *T implements one of ifaces that has a method of that name. The
// method set of *T holds T's too, so one check covers both receivers.
func satisfiesInterface(obj types.Object, ifaces map[types.Type]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if types.IsInterface(t) || isGeneric(t) {
		return false
	}
	for i := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(i, false, nil, fn.Name()); m != nil &&
			types.Implements(types.NewPointer(t), i.Underlying().(*types.Interface)) {
			return true
		}
	}
	return false
}
