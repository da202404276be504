package analysis

import (
	"go/ast"
	"go/types"
)

// runWireDeadline flags, in the wire packages, any connection or frame
// write inside a function that never arms a write deadline. The repo's
// discipline (frame.Conn's one write path, which every wire goes through)
// is per-frame deadlines in the same function as the write; a helper that
// deliberately leaves arming to its callers carries a waiver saying which
// caller arms.
func runWireDeadline(p *Package, cfg *Config) []Diagnostic {
	if !containsPath(cfg.WirePackages, p.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, fn := range functionBodies(f) {
			out = append(out, wireWritesWithoutDeadline(p, cfg, fn)...)
		}
	}
	return out
}

// functionBody is one analysis unit: a FuncDecl or FuncLit body.
// Function literals are separate units — a closure that writes must arm
// its own deadline (the worker's flush closure is the model).
type functionBody struct {
	node ast.Node // the FuncDecl or FuncLit
	body *ast.BlockStmt
}

func functionBodies(f *ast.File) []functionBody {
	var out []functionBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, functionBody{n, n.Body})
			}
		case *ast.FuncLit:
			out = append(out, functionBody{n, n.Body})
		}
		return true
	})
	return out
}

// inspectShallow walks body without descending into nested function
// literals, which are their own analysis units.
func inspectShallow(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

func wireWritesWithoutDeadline(p *Package, cfg *Config, fn functionBody) []Diagnostic {
	type event struct {
		node ast.Node
		what string
	}
	var events []event
	armed := false
	inspectShallow(fn.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name == "SetWriteDeadline" || name == "SetDeadline" {
			armed = true
			return true
		}
		recv, ok := p.Info.Types[sel.X]
		if !ok || recv.Type == nil {
			return true
		}
		switch {
		case name == "Write" && isDeadlineWriter(p, recv.Type):
			events = append(events, event{call, "connection write (" + recv.Type.String() + ".Write)"})
		case isFrameWriterMethod(cfg, recv.Type, name):
			events = append(events, event{call, "frame write (" + namedTypeString(recv.Type) + "." + name + ")"})
		}
		return true
	})
	if armed || len(events) == 0 {
		return nil
	}
	var out []Diagnostic
	for _, e := range events {
		out = append(out, Diagnostic{
			Pos:     p.Fset.Position(e.node.Pos()),
			Check:   CheckWireDeadline,
			Message: e.what + " in a function that never arms a write deadline: a stalled peer parks this goroutine on a full TCP buffer forever",
		})
	}
	return out
}

// isDeadlineWriter reports whether t is conn-like: it has both Write
// and SetWriteDeadline (net.Conn, *net.TCPConn, chaos.Conn, ...).
// Plain io.Writers (bufio, files, buffers) are not flagged — the frame
// codec's own Write into its buffered writer is covered by flagging
// the codec's callers instead.
func isDeadlineWriter(p *Package, t types.Type) bool {
	return hasMethod(p, t, "SetWriteDeadline") && hasMethod(p, t, "Write")
}

func hasMethod(p *Package, t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, p.Types, name)
	_, ok := obj.(*types.Func)
	return ok
}

// isFrameWriterMethod reports whether calling name on a value of type t
// is a frame write: t is one of the configured frame-writer types and
// name is WriteFrame, its one writing entry point.
func isFrameWriterMethod(cfg *Config, t types.Type, name string) bool {
	if name != "WriteFrame" {
		return false
	}
	full := namedTypeString(t)
	for _, fw := range cfg.FrameWriters {
		if full == fw {
			return true
		}
	}
	return false
}
