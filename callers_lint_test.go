package rim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerlessKeep lists the exported functions and methods under internal/
// that no non-test file calls by name yet stay, each with its reason. Keys
// are the package directory under internal/, then the receiver type for a
// method, then the name.
var callerlessKeep = map[string]string{
	"trrs.Engine.BaseMatrixSerial":  "reference implementation the pool and incremental tests compare against",
	"sigproc.Normalize":             "reference implementation NormalizeSoA's tests compare against",
	"sigproc.InnerProduct":          "reference implementation the SoA kernels' and TRRS tests compare against",
	"obs.LintMetricNames":           "the metric-naming lint in metrics_lint_test.go runs it",
	"sigproc.VecSupported":          "tests gate the AVX2 paths on it",
	"sigproc.FFT":                   "CIR-tap TRRS (ROADMAP item 1) measures tap energy with it",
	"sigproc.IFFT":                  "CIR-tap TRRS (ROADMAP item 1) measures tap energy with it",
	"obs/trace.Lineage":             "reference join behind TestStreamTraceLineage and DESIGN's lineage contract",
	"traj.StopAndGo":                "fixture the align and core tests build on",
	"fusion.ESKF.Covariance":        "tests observe the filter's covariance through it",
	"fusion.ESKF.GyroBias":          "tests observe the estimated gyro bias through it",
	"fusion.ESKF.SpeedBias":         "tests observe the estimated speed bias through it",
	"core.Streamer.Latency":         "tests observe a stream's fixed latency through it",
	"csi.Series.Dt":                 "tests observe a series' sample period through it",
	"trrs.Matrix.Col":               "tests read matrix columns through it",
	"obs/trace.Recorder.Cap":        "tests observe the ring capacity through it",
	"trrs.Incremental.HeldBytes":    "tests check that a session keeps no planes and no twin rings between hops",
	"trrs.RawRing.Capacity":         "tests observe the window store's size through it",
	"trrs.Incremental.Renormalized": "tests check that a steady-state hop reads nothing below the steady reach",
	"trrs.Incremental.Normalized":   "tests check that a steady-state hop normalizes at most reach + stride slots",
	"obs.Family.Other":              "tests observe the overflow child's conservation through it",
	"rf.Environment.Scatterers":     "tests observe the simulated multipath through it",
}

// implicitMethods are the methods of standard-library interfaces (error,
// fmt.Stringer, encoding/json, encoding, log/slog.Handler, http.Handler,
// sort.Interface, io), which the standard library calls without any file
// here naming them.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
}

// TestExportedFuncsHaveCallers fails when an exported function or method
// declared in a non-test file under internal/ is named by no non-test file
// of the repository (cmd/, examples/ and daemonbench/ included), unless
// callerlessKeep gives it a reason. Code only its own tests call goes, or
// earns a keep-list entry; an entry whose name gains a caller, or whose
// declaration is gone, fails too, so the list stays exact.
func TestExportedFuncsHaveCallers(t *testing.T) {
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	walkNonTestGo(t, fset, func(dir string, f *ast.File) {
		declNames := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			key := strings.TrimPrefix(dir, "internal/") + "."
			if fd.Recv != nil {
				recv := receiverType(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) || implicitMethods[fd.Name.Name] {
					continue
				}
				key += recv + "."
			}
			decls = append(decls, decl{key + fd.Name.Name, fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
	})
	if len(decls) < 100 {
		t.Fatalf("only %d exported declarations found under internal/; the walk lost its way", len(decls))
	}

	var unused []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		switch kept := callerlessKeep[d.key] != ""; {
		case !used[d.name] && !kept:
			unused = append(unused, d.key+" ("+d.pos+")")
		case used[d.name] && kept:
			unused = append(unused, d.key+": on the keep-list but named by a non-test file; drop the entry")
		}
	}
	for k := range callerlessKeep {
		if !declared[k] {
			unused = append(unused, k+": on the keep-list but not declared")
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Fatalf("delete what no non-test file calls, or give it a keep-list reason:\n  %s",
			strings.Join(unused, "\n  "))
	}
}

// setterlessKeep lists the exported fields of core.Config and
// core.StreamConfig that no non-test file outside internal/core sets yet
// stay, each with its reason. Keys are the type, then the field.
var setterlessKeep = map[string]string{
	"Config.Movement": "daemonbench reads it from DefaultConfig; it goes once the benchmark runs the daemon's own assembly (ROADMAP item 7)",
}

// TestConfigFieldsHaveSetters fails when an exported field of core.Config
// or core.StreamConfig is set by no non-test file outside internal/core —
// neither as a composite-literal key nor as the selector on the left of an
// assignment — unless setterlessKeep gives it a reason: a knob only the
// package's own defaults and tests set is a constant. Like
// TestExportedFuncsHaveCallers it matches by identifier, so a same-named
// field of another struct counts as a setter. A keep-list entry whose
// field gains a setter, or is gone, fails too.
func TestConfigFieldsHaveSetters(t *testing.T) {
	fields := map[string]string{} // "Type.Field" → field name
	set := map[string]bool{}
	walkNonTestGo(t, token.NewFileSet(), func(dir string, f *ast.File) {
		if dir == "internal/core" {
			for _, dd := range f.Decls {
				gd, ok := dd.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, sp := range gd.Specs {
					ts, ok := sp.(*ast.TypeSpec)
					if !ok || (ts.Name.Name != "Config" && ts.Name.Name != "StreamConfig") {
						continue
					}
					for _, fl := range ts.Type.(*ast.StructType).Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields[ts.Name.Name+"."+id.Name] = id.Name
							}
						}
					}
				}
			}
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	})
	if fields["Config.WindowSeconds"] == "" || fields["StreamConfig.HopSeconds"] == "" {
		t.Fatal("core.Config or core.StreamConfig not found; the walk lost its way")
	}

	var bad []string
	for key, name := range fields {
		switch kept := setterlessKeep[key] != ""; {
		case !set[name] && !kept:
			bad = append(bad, key)
		case set[name] && kept:
			bad = append(bad, key+": on the keep-list but set outside internal/core; drop the entry")
		}
	}
	for k := range setterlessKeep {
		if fields[k] == "" {
			bad = append(bad, k+": on the keep-list but not declared")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Fatalf("make a config field no caller sets a constant, or give it a keep-list reason:\n  %s",
			strings.Join(bad, "\n  "))
	}
}

// walkNonTestGo parses every non-test Go file of the repository (cmd/,
// examples/ and daemonbench/ included; hidden, underscore and testdata
// directories skipped) and hands it to visit with its slash-separated
// directory.
func walkNonTestGo(t *testing.T, fset *token.FileSet, visit func(dir string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// receiverType returns the type name of a method receiver expression,
// stripping pointers and type parameters.
func receiverType(e ast.Expr) string {
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
			return ""
		}
	}
}
