package irs

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
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
	"dct.Forward1D":             "reference: the textbook DCT-II the 8×8 kernels are held to",
	"dct.Inverse1D":             "reference: the textbook DCT-III the 8×8 kernels are held to",
	"bloom.DeltaWithBase":       "reference: merged window deltas must equal it byte for byte",
	"netsim.Faulty.TraceString": "reference: same-seed chaos runs must render identical traces",
	"phash.Band":                "reference: the band layout the keyed band mixer is checked against",
	"phash.AHash":               "reference: the fused NewSignature must equal the three hashes computed alone",
	"phash.DHash":               "reference: the fused NewSignature must equal the three hashes computed alone",
	"phash.PHash":               "reference: the fused NewSignature must equal the three hashes computed alone",
	"ledger.Config.Shards":      "reference: Shards = 1 is the single-lock store the sharded one is held to (crash and equivalence tests at 1, 8 and 32)",

	// Test fixtures.
	"photo.SynthRGB":             "test fixture: colour images for the codec and hash tests",
	"photo.MeanAbsDiff":          "test fixture: frame fidelity in the video codec tests",
	"photo.Image.SetGray":        "test fixture: hand-built pixels in the image tests",
	"photo.Metadata.HasIRSLabel": "test fixture: checks a label survived or was stripped",

	// Paper mechanisms that no binary exposes yet.
	"aggregator.Aggregator.UploadVideo": "paper mechanism: the §3 video path (no upload route yet)",
	"aggregator.Aggregator.ServeVideo":  "paper mechanism: the §3 video path (no serve route yet)",
	"camera.Camera.ClaimAndLabelVideo":  "paper mechanism: the §3 video path (no owner tool yet)",
	"photo.EncodeIRSV":                  "paper mechanism: the IRSV video container",
	"photo.DecodeIRSV":                  "paper mechanism: the IRSV video container",
	"photo.TranscodeVideo":              "paper mechanism: the benign video transform the §3 video path must survive",
	"photo.DropFrames":                  "paper mechanism: the frame-rate transform the §3 video path must survive",
	"photo.Metadata.StripNonIRS":        "paper mechanism: §3.2's IRS-supporting site keeps only the label",
	"appeals.NewSiteAdjudicator":        "paper mechanism: §5 site-side appeals (irs-site has no appeals route yet)",
	"provenance.Chain.AddPublished":     "paper mechanism: §5 provenance publication events",
	"browser.AlmanacGoodThreshold":      "paper mechanism: the Web Almanac bar §4.3 measures page loads against",
	"core.Spec.BrowserFilter":           "paper mechanism: §4.4's browser-resident filter (no binary runs a browser)",

	// Named ROADMAP items.
	"obs.Tracer.DumpString":          "ROADMAP item 10: trace dumps on a debug route",
	"topology.Replica.AppliedSeq":    "ROADMAP item 15: replica lag in the topology report",
	"netsim.FaultConfig.SpikeProb":   "ROADMAP item 2: latency spikes in the chaos schedule",
	"netsim.FaultConfig.Spike":       "ROADMAP item 2: latency spikes in the chaos schedule",
	"netsim.FaultConfig.FailLatency": "ROADMAP item 2: timeout-shaped failures in the chaos schedule",
	"netsim.FaultConfig.Outages":     "ROADMAP item 2: scheduled outages in the chaos schedule",

	// Test accessors.
	"proxy.Validator.BreakerState": "test accessor: breaker transitions",
	"ledger.Ledger.Compact":        "test accessor: forces the background merge",
	"bloom.Window.RetainedBytes":   "test accessor: the epoch window's memory bound",
	"bloom.Filter.FillRatio":       "test accessor: a filter's fill at its design load",
	"netsim.Scheduler.Pending":     "test accessor: the event queue drains",

	// Deployment credentials.
	"core.Spec.AdminToken": "deployment credential: guards permanent revocation; binaries pass their own",

	// The test clock.
	"wire.RetryConfig.Sleep": "test clock: backoffs without sleeping",
}

// implicitCalls are method names the standard library calls through
// its interfaces (fmt, errors, sort, container/heap, net/http): the
// method's declaration is what puts it to use.
var implicitCalls = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// scanRoots are the trees whose non-test files count as callers.
// bench/ is its own module but calls the internal packages as any
// binary does.
var scanRoots = []string{"internal", "cmd", "examples", "bench"}

// export is one exported declaration under check.
type export struct {
	key  string // "pkg.Name", "pkg.Type.Method" or "pkg.Struct.Field"
	name string // the identifier its callers use
	dir  string // the declaring package's directory
	// field marks a config field, live once set outside dir; anything
	// else is live once named anywhere but at a declaration.
	field bool
}

// TestEveryExportHasACaller keeps the exported surface the surface that
// runs. It tokenizes every non-test .go file under scanRoots and fails
// when
//
//	(a) an exported func, method, type, const or var declared under
//	    internal/ is named nowhere but at a declaration;
//	(b) an exported field of an exported *Config, *Options or *Policy
//	    struct, or of Spec, is never set outside its own package, as a
//	    composite-literal key or by an x.F = assignment;
//	(c) a callerAllowlist entry is stale: the name has a caller now,
//	    or no longer exists.
//
// Matching is by token, not by type: declarations that share a name
// share their callers, so a collision can hide a dead name but never
// flag a live one.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var exports []export
	declared := map[token.Pos]bool{} // the declaring identifiers
	named := map[string]bool{}       // identifiers used anywhere else
	setIn := map[string][]string{}   // identifier → directories setting it

	scan := func(path string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		pkg := filepath.Base(dir)
		internal := strings.HasPrefix(path, "internal"+string(filepath.Separator))
		add := func(id *ast.Ident, key string, field bool) {
			declared[id.Pos()] = true
			if internal && id.IsExported() {
				exports = append(exports, export{key, id.Name, dir, field})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv == nil:
					add(d.Name, pkg+"."+d.Name.Name, false)
				case implicitCalls[d.Name.Name]:
					declared[d.Name.Pos()] = true
				default:
					add(d.Name, pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, false)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, pkg+"."+s.Name.Name, false)
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() && isConfigName(s.Name.Name) {
							for _, fl := range st.Fields.List {
								for _, id := range fl.Names {
									add(id, pkg+"."+s.Name.Name+"."+id.Name, true)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, pkg+"."+id.Name, false)
						}
					}
				}
			}
		}

		// The tokens: an identifier is named unless it declares, and set
		// when it is a composite-literal key ({F: or , F:) or the target
		// of an x.F op= assignment.
		var sc scanner.Scanner
		sc.Init(fset.File(f.Pos()), src, nil, 0)
		var before token.Token // the token before the pending identifier
		var pending string     // an identifier whose successor is unread
		var prev token.Token
		for {
			pos, tok, lit := sc.Scan()
			if pending != "" {
				key := tok == token.COLON && (before == token.LBRACE || before == token.COMMA)
				if key || (before == token.PERIOD && isAssign(tok)) {
					setIn[pending] = append(setIn[pending], dir)
				}
				pending = ""
			}
			if tok == token.EOF {
				return nil
			}
			if tok == token.IDENT && !declared[pos] {
				named[lit] = true
				pending, before = lit, prev
			}
			prev = tok
		}
	}
	for _, root := range scanRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			return scan(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	live := func(e export) bool {
		if !e.field {
			return named[e.name]
		}
		for _, dir := range setIn[e.name] {
			if dir != e.dir {
				return true
			}
		}
		return false
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
			failures = append(failures, e.key+": named only at its declaration in "+e.dir)
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

func isAssign(t token.Token) bool {
	switch t {
	case token.ASSIGN, token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.QUO_ASSIGN, token.REM_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN,
		token.XOR_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
		return true
	}
	return false
}
