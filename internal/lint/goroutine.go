package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// Goroutine forbids `go` statements and sync / sync/atomic imports in
// every internal/ package except the one worker pool. The DES kernel is
// sequential by design: causality is the event heap's total order, and
// determinism depends on it. Concurrency belongs in internal/workers,
// the pool built to contain it; the engines on top of it — internal/sweep
// (cells across runs) and internal/pdes (tiles within a run, whose
// barrier protocol keeps each kernel single-threaded within its
// windows) — only submit jobs and wait, so they need neither.
// internal/serve is also exempt — for sync imports only, not go
// statements: its mutexes guard the HTTP-facing journal buffer and run
// registry, provably off the simulation path (each run is owned by one
// pool worker from build to finish, and handlers never touch a live
// run).
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "forbid go statements and sync primitives in internal/ (except the internal/workers pool); the kernel is sequential",
	Run:  runGoroutine,
}

func runGoroutine(p *Pass) {
	if !p.InInternal() || isWorkerPoolPkg(p.Path) {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				if isServePkg(p.Path) {
					// The HTTP layer may lock its client-facing
					// buffers; runs still execute on sweep workers.
					continue
				}
				p.Reportf(imp.Pos(), "import %q: sync primitives imply shared-state concurrency; the simulation kernel is sequential (only internal/workers may coordinate goroutines)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "go statement: simulation code must stay sequential; submit concurrent work to an internal/workers pool (or across runs, internal/sweep)")
			}
			return true
		})
	}
}

func isWorkerPoolPkg(path string) bool {
	return strings.HasSuffix(path, "/internal/workers") || path == "internal/workers"
}

func isServePkg(path string) bool {
	return strings.HasSuffix(path, "/internal/serve") || path == "internal/serve"
}
