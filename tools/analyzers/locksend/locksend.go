// Package locksend enforces the dist server's cardinal concurrency
// rule (PR 4): nothing that can block on a peer — channel sends,
// Broadcaster.Publish, observer callbacks, network I/O, sleeps — may
// run while a sync.Mutex/RWMutex is held. A slow watcher or worker
// must never be able to stall scheduling by wedging a goroutine inside
// the server's critical section.
//
// The check is intra-package but call-aware: every function gets a
// "blocking" summary (does it, transitively through same-package
// calls, perform one of the forbidden operations?), then each function
// body is walked with a lock-state machine — Lock()/RLock() enter a
// critical section, Unlock()/RUnlock() leave it, deferred unlocks hold
// to function end — and any forbidden operation or call to a
// blocking-summarized function inside a held region is reported. A
// lock is a sync.Mutex or RWMutex, a sync.Locker, or a struct that
// embeds a mutex (dist.Pool.Mu, whose Unlock ends the hold).
//
// The intra-package view has one blind spot: a function another
// package calls with its lock held (the dist.Pool core invoking an
// Owner hook implemented in internal/jobs). The repository's naming
// convention closes it — a function or method whose name ends in
// "Locked" is analysed with a mutex assumed held from entry to return,
// whoever calls it.
//
// An operation waived in place with //pnanalyze:ok locksend has been
// reviewed as non-blocking, so it does not taint its callers either:
// one waiver, at the operation.
//
// Forbidden while a mutex is held:
//   - channel sends (except inside a select with a default clause);
//   - calls to methods named Publish (the Broadcaster surface);
//   - calls to interface methods named On* (the observe.Observer
//     protocol — arbitrary user code);
//   - method calls on values implementing net.Conn, and
//     (*encoding/json.Encoder).Encode / (*bufio.Writer).Flush
//     (blocking network writes in this codebase);
//   - time.Sleep.
package locksend

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"pnsched/tools/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "locksend",
	Doc: "forbid blocking operations while a mutex is held\n\n" +
		"Channel sends, Broadcaster.Publish, observe.Observer callbacks,\n" +
		"net.Conn I/O and sleeps must happen outside critical sections —\n" +
		"the dist server's events-outside-the-lock rule, machine-checked.",
	NeedsTypes: true,
	Run:        run,
}

var observerMethod = regexp.MustCompile(`^On[A-Z]`)

// an op is one directly forbidden operation found in a function body.
type op struct {
	pos  token.Pos
	desc string
}

// a call site to a same-package function.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// summary of one function: its direct forbidden ops and same-package
// call sites.
type summary struct {
	ops   []op
	calls []callSite
	// blocking is the fixpoint result: non-empty description of why
	// calling this function may block.
	blocking string
}

// callersLock is the held-set key for the mutex a …Locked function's
// caller holds; it reads naturally in the diagnostic.
const callersLock = "the caller's lock (…Locked)"

type checker struct {
	pass     *analysis.Pass
	waived   func(token.Pos) bool
	conn     *types.Interface // net.Conn if the package can see it
	funcs    map[*types.Func]*ast.FuncDecl
	summarys map[*types.Func]*summary
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		waived:   analysis.Waived(pass.Fset, pass.Files, "locksend"),
		conn:     lookupNetConn(pass.Pkg),
		funcs:    make(map[*types.Func]*ast.FuncDecl),
		summarys: make(map[*types.Func]*summary),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.funcs[fn] = fd
				}
			}
		}
	}
	for fn, fd := range c.funcs {
		c.summarys[fn] = c.summarize(fd)
	}
	c.fixpoint()
	for _, fd := range c.funcs {
		held := make(map[string]token.Pos)
		if strings.HasSuffix(fd.Name.Name, "Locked") {
			held[callersLock] = fd.Pos()
		}
		c.walkStmts(fd.Body.List, held, false)
	}
	return nil
}

// lookupNetConn finds the net.Conn interface through the package's
// direct imports; without it the network-I/O checks are skipped.
func lookupNetConn(pkg *types.Package) *types.Interface {
	if pkg == nil {
		return nil
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == "net" {
			if o := imp.Scope().Lookup("Conn"); o != nil {
				if iface, ok := o.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
		}
	}
	return nil
}

// summarize scans a function body (nested function literals excluded —
// they run on their own goroutine or schedule) for direct forbidden
// ops and same-package calls.
func (c *checker) summarize(fd *ast.FuncDecl) *summary {
	s := &summary{}
	c.scanNode(fd.Body, false, func(o op) {
		if !c.waived(o.pos) {
			s.ops = append(s.ops, o)
		}
	}, func(cs callSite) {
		if !c.waived(cs.pos) {
			s.calls = append(s.calls, cs)
		}
	})
	return s
}

// scanNode walks n (skipping FuncLits and non-blocking selects'
// sends), invoking onOp for forbidden operations and onCall for
// same-package static calls.
func (c *checker) scanNode(n ast.Node, inNonBlockingSelect bool, onOp func(op), onCall func(callSite)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// The spawned call runs on its own goroutine, which does
			// not inherit the caller's lock — but its function and
			// argument expressions are evaluated here, before the
			// goroutine starts.
			c.scanExprCalls(n.Call.Fun, onOp, onCall)
			for _, arg := range n.Call.Args {
				c.scanExprCalls(arg, onOp, onCall)
			}
			return false
		case *ast.SelectStmt:
			nb := hasDefault(n)
			for _, clause := range n.Body.List {
				c.scanNode(clause, nb, onOp, onCall)
			}
			return false
		case *ast.SendStmt:
			if !inNonBlockingSelect {
				onOp(op{n.Pos(), "sends on a channel"})
			}
			// still scan the value expression for calls
			c.scanExprCalls(n.Value, onOp, onCall)
			return false
		case *ast.CallExpr:
			if desc, ok := c.forbiddenCall(n); ok {
				onOp(op{n.Pos(), desc})
			} else if fn := c.localCallee(n); fn != nil {
				onCall(callSite{n.Pos(), fn})
			}
		}
		return true
	})
}

func (c *checker) scanExprCalls(e ast.Expr, onOp func(op), onCall func(callSite)) {
	c.scanNode(e, false, onOp, onCall)
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// forbiddenCall classifies one call as a directly forbidden operation.
func (c *checker) forbiddenCall(call *ast.CallExpr) (string, bool) {
	fn := c.callee(call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
			return "sleeps (time.Sleep)", true
		}
		return "", false
	}
	recv := sig.Recv().Type()
	switch {
	case fn.Name() == "Publish":
		return fmt.Sprintf("publishes an event (%s.Publish)", typeName(recv)), true
	case observerMethod.MatchString(fn.Name()) && types.IsInterface(recv):
		return fmt.Sprintf("calls observer method %s.%s", typeName(recv), fn.Name()), true
	case fn.Name() == "Encode" && isNamed(recv, "encoding/json", "Encoder"):
		return "writes to the connection ((*json.Encoder).Encode)", true
	case fn.Name() == "Flush" && isNamed(recv, "bufio", "Writer"):
		return "flushes a buffered writer ((*bufio.Writer).Flush)", true
	case c.conn != nil && implementsConn(recv, c.conn):
		return fmt.Sprintf("performs network I/O (%s.%s on a net.Conn)", typeName(recv), fn.Name()), true
	}
	return "", false
}

func (c *checker) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// localCallee resolves a call to a function declared in this package.
func (c *checker) localCallee(call *ast.CallExpr) *types.Func {
	fn := c.callee(call)
	if fn == nil || fn.Pkg() != c.pass.Pkg {
		return nil
	}
	if _, ok := c.funcs[fn]; !ok {
		return nil
	}
	return fn
}

func implementsConn(t types.Type, conn *types.Interface) bool {
	if types.Implements(t, conn) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr && !types.IsInterface(t) {
		return types.Implements(types.NewPointer(t), conn)
	}
	return false
}

func isNamed(t types.Type, pkg, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == name
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// fixpoint propagates blocking summaries through same-package calls.
// It runs in two phases so the result is independent of map iteration
// order: a boolean reaches-a-blocking-op fixpoint, then a message pass
// that always explains a function by the EARLIEST blocking operation
// or call in its source order.
func (c *checker) fixpoint() {
	blocking := make(map[*types.Func]bool, len(c.summarys))
	for fn, s := range c.summarys {
		blocking[fn] = len(s.ops) > 0
	}
	for changed := true; changed; {
		changed = false
		for fn, s := range c.summarys {
			if blocking[fn] {
				continue
			}
			for _, cs := range s.calls {
				if blocking[cs.callee] {
					blocking[fn] = true
					changed = true
					break
				}
			}
		}
	}
	var describe func(fn *types.Func, seen map[*types.Func]bool) string
	describe = func(fn *types.Func, seen map[*types.Func]bool) string {
		s := c.summarys[fn]
		if s == nil || seen[fn] {
			return "blocks"
		}
		seen[fn] = true
		var bestPos token.Pos = -1
		best := ""
		for _, o := range s.ops {
			if bestPos < 0 || o.pos < bestPos {
				bestPos, best = o.pos, o.desc
			}
		}
		for _, cs := range s.calls {
			if blocking[cs.callee] && (bestPos < 0 || cs.pos < bestPos) {
				bestPos = cs.pos
				best = fmt.Sprintf("calls %s, which %s", cs.callee.Name(), describe(cs.callee, seen))
			}
		}
		return best
	}
	for fn, s := range c.summarys {
		if blocking[fn] {
			s.blocking = describe(fn, make(map[*types.Func]bool))
		}
	}
}

// ---- lock-state walk ----

// walkStmts interprets a statement list with the set of held mutexes
// (key: source expression of the mutex, e.g. "s.mu"; value: Lock
// position). deferredUnlock records that an unlock is pending via
// defer, which keeps the mutex held to function end AND makes later
// deferred blocking calls run under the lock.
func (c *checker) walkStmts(stmts []ast.Stmt, held map[string]token.Pos, deferredUnlock bool) {
	for _, stmt := range stmts {
		deferredUnlock = c.walkStmt(stmt, held, deferredUnlock)
	}
}

func (c *checker) walkStmt(stmt ast.Stmt, held map[string]token.Pos, deferredUnlock bool) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, kind, ok := c.lockCall(s.X); ok {
			switch kind {
			case "Lock", "RLock":
				held[key] = s.Pos()
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return deferredUnlock
		}
		c.checkUnderLock(s, held)
	case *ast.DeferStmt:
		if key, kind, ok := c.lockCall(s.Call); ok && (kind == "Unlock" || kind == "RUnlock") {
			// The mutex stays held until function end; remember that a
			// deferred unlock is pending so later defers are known to
			// run inside the critical section (LIFO order).
			_ = key
			return true
		}
		if deferredUnlock {
			// This deferred call runs BEFORE the earlier-deferred
			// unlock, i.e. with the mutex held.
			c.checkDeferredUnderLock(s, held)
		}
	case *ast.AssignStmt, *ast.DeclStmt, *ast.ReturnStmt, *ast.IncDecStmt,
		*ast.SendStmt, *ast.GoStmt:
		// For a GoStmt, scanNode skips the spawned call itself (the
		// new goroutine does not inherit the lock) but still checks
		// its function and argument expressions, evaluated here.
		c.checkUnderLock(s, held)
	case *ast.IfStmt:
		if s.Init != nil {
			c.checkUnderLock(s.Init, held)
		}
		c.checkUnderLockExpr(s.Cond, held)
		thenHeld := cloneHeld(held)
		c.walkStmts(s.Body.List, thenHeld, deferredUnlock)
		var elseHeld map[string]token.Pos
		if s.Else != nil {
			elseHeld = cloneHeld(held)
			c.walkStmt(s.Else, elseHeld, deferredUnlock)
		}
		// Continuation: union of the surviving paths' held sets.
		merge := make(map[string]token.Pos)
		survivors := 0
		if !terminates(s.Body.List) {
			addAll(merge, thenHeld)
			survivors++
		}
		if s.Else == nil {
			addAll(merge, held) // the not-taken path
			survivors++
		} else if !stmtTerminates(s.Else) {
			addAll(merge, elseHeld)
			survivors++
		}
		if survivors > 0 {
			replace(held, merge)
		}
	case *ast.BlockStmt:
		c.walkStmts(s.List, held, deferredUnlock)
	case *ast.ForStmt:
		if s.Init != nil {
			c.checkUnderLock(s.Init, held)
		}
		body := cloneHeld(held)
		c.walkStmts(s.Body.List, body, deferredUnlock)
	case *ast.RangeStmt:
		body := cloneHeld(held)
		c.walkStmts(s.Body.List, body, deferredUnlock)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var bodyList []ast.Stmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			bodyList = sw.Body.List
		} else {
			bodyList = s.(*ast.TypeSwitchStmt).Body.List
		}
		for _, clause := range bodyList {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, cloneHeld(held), deferredUnlock)
			}
		}
	case *ast.SelectStmt:
		nb := hasDefault(s)
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			if !nb && cc.Comm != nil && len(held) > 0 {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					c.report(send.Pos(), "sends on a channel", held)
				}
			}
			c.walkStmts(cc.Body, cloneHeld(held), deferredUnlock)
		}
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, held, deferredUnlock)
	}
	return deferredUnlock
}

// checkUnderLock reports forbidden ops and blocking-summarized calls
// inside stmt when any mutex is held.
func (c *checker) checkUnderLock(n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	c.scanNode(n, false, func(o op) {
		c.report(o.pos, o.desc, held)
	}, func(cs callSite) {
		if s := c.summarys[cs.callee]; s != nil && s.blocking != "" {
			c.report(cs.pos, fmt.Sprintf("calls %s, which %s", cs.callee.Name(), s.blocking), held)
		}
	})
}

func (c *checker) checkUnderLockExpr(e ast.Expr, held map[string]token.Pos) {
	if e != nil {
		c.checkUnderLock(e, held)
	}
}

// checkDeferredUnderLock handles `defer f(...)` registered after a
// deferred unlock: f runs while the mutex is still held.
func (c *checker) checkDeferredUnderLock(s *ast.DeferStmt, held map[string]token.Pos) {
	if desc, ok := c.forbiddenCall(s.Call); ok {
		c.reportDeferred(s.Pos(), desc)
		return
	}
	if fn := c.localCallee(s.Call); fn != nil {
		if sum := c.summarys[fn]; sum != nil && sum.blocking != "" {
			c.reportDeferred(s.Pos(), fmt.Sprintf("calls %s, which %s", fn.Name(), sum.blocking))
		}
	}
}

func (c *checker) report(pos token.Pos, desc string, held map[string]token.Pos) {
	c.pass.Reportf(pos, "%s while %s is held: move it outside the critical section",
		desc, heldNames(held))
}

func (c *checker) reportDeferred(pos token.Pos, desc string) {
	c.pass.Reportf(pos, "deferred after a deferred unlock, so it runs with the mutex held: %s", desc)
}

// lockCall recognizes <expr>.mu.Lock()-style calls on locks (isLock),
// returning the lock's source expression and the method name.
func (c *checker) lockCall(e ast.Expr) (key, kind string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	t := c.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if !isLock(t) {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// isLock reports whether t (or what it points to) is a sync.Mutex or
// RWMutex, a sync.Locker, or a struct embedding a mutex, whose Lock and
// Unlock — promoted or its own — take and release it.
func isLock(t types.Type) bool {
	mutex := func(t types.Type) bool {
		return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
	}
	if mutex(t) || isNamed(t, "sync", "Locker") {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := range st.NumFields() {
			if f := st.Field(i); f.Embedded() && mutex(f.Type()) {
				return true
			}
		}
	}
	return false
}

func heldNames(held map[string]token.Pos) string {
	// Deterministic smallest key (usually there is exactly one).
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

func cloneHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func addAll(dst, src map[string]token.Pos) {
	for k, v := range src {
		dst[k] = v
	}
}

func replace(dst, src map[string]token.Pos) {
	for k := range dst {
		delete(dst, k)
	}
	addAll(dst, src)
}

func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return stmtTerminates(stmts[len(stmts)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}
