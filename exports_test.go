package irs

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist is the exported API that stays although no non-test
// code outside its declaration names it (a func, method, type, const or
// var) or sets it (a config field). Keys are "pkg.Name",
// "pkg.Type.Method" or "pkg.Struct.Field"; every value is the reason.
var callerAllowlist = map[string]string{
	// Reference or oracle code the tests compare against.
	"dct.Forward1D":                    "reference: the textbook DCT-II the 8×8 kernels are held to",
	"dct.Inverse1D":                    "reference: the textbook DCT-III the 8×8 kernels are held to",
	"bloom.DeltaWithBase":              "reference: merged window deltas must equal it byte for byte",
	"phash.Band":                       "reference: the band layout the keyed band mixer is checked against",
	"phash.AHash":                      "reference: the fused NewSignature must equal the three hashes computed alone",
	"phash.DHash":                      "reference: the fused NewSignature must equal the three hashes computed alone",
	"phash.PHash":                      "reference: the fused NewSignature must equal the three hashes computed alone",
	"ledger.Config.Shards":             "reference: Shards = 1 is the single-lock store the sharded one is held to (crash and equivalence tests at 1, 8 and 32)",
	"aggregator.SigIndex.LookupLinear": "reference: the linear scan every banded lookup must equal",

	// Test fixtures.
	"photo.SynthRGB":             "test fixture: colour images for the codec and hash tests",
	"photo.MeanAbsDiff":          "test fixture: the fidelity measure of the transform tests",
	"photo.Image.SetGray":        "test fixture: hand-built pixels in the image tests",
	"photo.Metadata.HasIRSLabel": "test fixture: checks a label survived or was stripped",
	"photo.Image.Equal":          "test fixture: the photo and watermark tests compare images with it",
	"phash.CraftedCollisions":    "test fixture: the band-collision flood the keyed index is held against",

	// Named ROADMAP items.
	"core.Spec.BrowserFilter": "ROADMAP item 16: deploys §4.4's browser-resident filter",

	// Fault handling that the proxy tests drive but no binary deploys
	// yet: the deployed proxy is fail-closed and never retries.
	"proxy.Config.Breaker":                "ROADMAP item 24: the per-ledger circuit breaker, deployed once a link can fail under test",
	"proxy.BreakerConfig.Enabled":         "ROADMAP item 24: the per-ledger circuit breaker, deployed once a link can fail under test",
	"proxy.Config.Degrade":                "ROADMAP item 24: the fail-open-fresh posture, deployed once a link can fail under test",
	"proxy.DegradePolicy.Mode":            "ROADMAP item 24: the fail-open-fresh posture, deployed once a link can fail under test",
	"wire.NewRetryClient":                 "ROADMAP item 24: the retrying transport, deployed once a link can fail under test",
	"wire.RetryConfig.AttemptTimeout":     "ROADMAP item 24: the retrying transport, deployed once a link can fail under test",
	"wire.RetryConfig.BaseBackoff":        "ROADMAP item 24: the retrying transport, deployed once a link can fail under test",
	"wire.RetryConfig.MaxAttempts":        "ROADMAP item 24: the retrying transport, deployed once a link can fail under test",
	"wire.RetryConfig.MaxBackoff":         "ROADMAP item 24: the retrying transport, deployed once a link can fail under test",
	"wire.RetryConfig.Seed":               "ROADMAP item 24: the retrying transport, deployed once a link can fail under test",
	"proxy.AdmissionConfig.OverflowRate":  "ROADMAP item 5: the shared overflow lane of admission, priced when admission fronts the ledger",
	"proxy.AdmissionConfig.OverflowBurst": "ROADMAP item 5: the shared overflow lane of admission, priced when admission fronts the ledger",
	"proxy.Config.Obs":                    "ROADMAP item 10: a validator on a caller's registry, wired when traces cross tiers",

	// The record plane's replica tier: only its own tests build it.
	"topology.NewOrigin":             "ROADMAP item 15: the record plane's replica tier, which one signed head on /v1/log replaces",
	"topology.NewReplica":            "ROADMAP item 15: the record plane's replica tier, which one signed head on /v1/log replaces",
	"topology.Origin.Checkpoint":     "ROADMAP item 15: the record plane's replica tier, which one signed head on /v1/log replaces",
	"topology.Origin.ReplicationKey": "ROADMAP item 15: the record plane's replica tier, which one signed head on /v1/log replaces",
	"topology.Origin.Restore":        "ROADMAP item 15: the record plane's replica tier, which one signed head on /v1/log replaces",
	"topology.Replica.CatchUp":       "ROADMAP item 15: the record plane's replica tier, which one signed head on /v1/log replaces",
	"topology.Replica.Ready":         "ROADMAP item 15: the record plane's replica tier, which one signed head on /v1/log replaces",

	// Test accessors.
	"proxy.Validator.BreakerState": "test accessor: breaker transitions",
	"ledger.Ledger.Compact":        "test accessor: forces the background merge",
	"bloom.Window.RetainedBytes":   "test accessor: the epoch window's memory bound",
	"bloom.Filter.FillRatio":       "test accessor: a filter's fill at its design load",
	"aggregator.Aggregator.Hosts":  "test accessor: a taken-down photo is no longer hosted",
	"obs.Registry.Snapshot":        "test accessor: tests read series from a registry",
	"obs.Value":                    "test accessor: tests read one series from a snapshot",
	"camera.Camera.Store":          "test accessor: the keys a camera claimed",
	"core.System.Directory":        "test accessor: the ledger directory a built stack validates against",

	// Deployment credentials.
	"core.Spec.AdminToken": "deployment credential: guards permanent revocation; binaries pass their own",

	// The test clock.
	"wire.RetryConfig.Sleep": "test clock: backoffs without sleeping",
}

// callerModules are the module roots whose packages count as callers.
// bench/ is its own module but calls the internal packages as any
// binary does.
var callerModules = []string{".", "bench"}

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string // the compiled export data
	GoFiles    []string
	Standard   bool
}

// export is one exported declaration under check.
type export struct {
	key string       // "pkg.Name", "pkg.Type.Method" or "pkg.Struct.Field"
	obj types.Object // what its callers resolve to
	dir string       // the declaring package's directory
	// field marks a config field, live once set outside its package;
	// anything else is live once used anywhere but at its declaration.
	field bool
}

// TestEveryExportHasACaller keeps the exported surface the surface that
// runs. It type-checks the non-test files of every package in the root
// and bench/ modules and fails when
//
//	(a) an exported func, method, type, const or var declared under
//	    internal/ has no use outside its declaration. A method is also
//	    used when its receiver type implements an interface, declared
//	    in the repo or the standard library, with a method of its name;
//	(b) an exported field of an exported *Config, *Options or *Policy
//	    struct, or of Spec, is never set outside its own package, as a
//	    composite-literal key or by an x.F = assignment;
//	(c) a callerAllowlist entry is stale: the name has a caller now,
//	    or no longer exists.
//
// Identifiers resolve through go/types, so a use counts only for the
// object it names: declarations that share a name do not share callers.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	exportData := map[string]string{} // standard package → export data
	var sources []listedPackage       // repo packages, dependencies first
	listed := map[string]bool{}
	for _, dir := range callerModules {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listedPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			switch {
			case p.Standard:
				exportData[p.ImportPath] = p.Export
			case !listed[p.ImportPath] && len(p.GoFiles) > 0:
				listed[p.ImportPath] = true
				sources = append(sources, p)
			}
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exportData[path])
	})

	// Type-check the repo from source, so every package resolves a
	// repo import to the same objects.
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	fileOf := map[*ast.File]*types.Package{}
	var exports []export
	for _, p := range sources {
		var pkgFiles []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkgFiles = append(pkgFiles, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, pkgFiles, info)
		if err != nil {
			t.Fatal(err)
		}
		checked[p.ImportPath] = pkg
		for _, f := range pkgFiles {
			fileOf[f] = pkg
		}
		if strings.HasPrefix(p.ImportPath, "irs/internal/") {
			dir := strings.TrimPrefix(p.ImportPath, "irs/")
			exports = append(exports, declaredExports(pkg, pkgFiles, info, dir)...)
		}
	}

	// (a) Uses, and the methods an interface reaches.
	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[origin(obj)] = true
	}
	for _, m := range implicitMethods(checked, std, exportData) {
		used[m] = true
	}

	// (b) Sets: composite-literal keys and assignment targets.
	setOutside := map[types.Object]bool{}
	set := func(id *ast.Ident, where *types.Package) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != where {
			setOutside[v.Origin()] = true
		}
	}
	for f, where := range fileOf {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set(id, where)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(sel.Sel, where)
					}
				}
			}
			return true
		})
	}

	live := func(e export) bool {
		if e.field {
			return setOutside[e.obj]
		}
		return used[e.obj]
	}
	var failures []string
	exists := map[string]bool{}
	for _, e := range exports {
		exists[e.key] = true
		_, allowed := callerAllowlist[e.key]
		switch {
		case allowed && live(e):
			failures = append(failures, e.key+": stale allowlist entry, it has a caller now")
		case allowed || live(e):
		case e.field:
			failures = append(failures, e.key+": field never set outside "+e.dir)
		default:
			failures = append(failures, e.key+": used only at its declaration in "+e.dir)
		}
	}
	for key, reason := range callerAllowlist {
		if !exists[key] {
			failures = append(failures, key+": stale allowlist entry, no such declaration")
		}
		if strings.TrimSpace(reason) == "" {
			failures = append(failures, key+": allowlist entry without a reason")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
	if len(failures) > 0 {
		t.Log("delete what has no caller, give it one, or add it to callerAllowlist with the reason it stays")
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declaredExports lists a package's exported top-level funcs, methods,
// types, consts and vars, and the exported fields of its config structs.
func declaredExports(pkg *types.Package, files []*ast.File, info *types.Info, dir string) []export {
	var out []export
	add := func(id *ast.Ident, key string, field bool) {
		if id.IsExported() {
			out = append(out, export{pkg.Name() + "." + key, info.Defs[id], dir, field})
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Name.Name, false)
				} else {
					add(d.Name, recvName(d.Recv.List[0].Type)+"."+d.Name.Name, false)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name, false)
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() && isConfigName(s.Name.Name) {
							for _, fl := range st.Fields.List {
								for _, id := range fl.Names {
									add(id, s.Name.Name+"."+id.Name, true)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, id.Name, false)
						}
					}
				}
			}
		}
	}
	return out
}

// implicitMethods are the repo's methods that a named interface can
// call: for each repo type and each interface it implements, the type's
// methods of that interface's method names. The interfaces are those at
// package scope in the repo and in every standard package it depends
// on, error, and the interface{ Unwrap() error } that errors.Is, As and
// Unwrap declare inside their bodies, where export data cannot see it.
func implicitMethods(repo map[string]*types.Package, std types.Importer, exportData map[string]string) []types.Object {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	ifaces := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	var concrete []*types.Named // the repo's non-interface types
	scan := func(p *types.Package, fromRepo bool) {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				if u.IsMethodSet() && u.NumMethods() > 0 {
					ifaces = append(ifaces, u)
				}
			default:
				if fromRepo {
					concrete = append(concrete, named)
				}
			}
		}
	}
	for _, p := range repo {
		scan(p, true)
	}
	for path := range exportData {
		if p, err := std.Import(path); err == nil {
			scan(p, false)
		}
	}
	var out []types.Object
	for _, named := range concrete {
		ptr := types.NewPointer(named)
		for _, iface := range ifaces {
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := range iface.NumMethods() {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, named.Obj().Pkg(), iface.Method(i).Name())
				if obj != nil {
					out = append(out, origin(obj))
				}
			}
		}
	}
	return out
}

// origin maps a method or field of an instantiated generic type to its
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

// recvName is a method receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

func isConfigName(n string) bool {
	return n == "Spec" || strings.HasSuffix(n, "Config") ||
		strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Policy")
}
