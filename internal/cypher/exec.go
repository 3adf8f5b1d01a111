package cypher

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/system"
)

// Val is one result cell: a scalar, a node, or a relationship.
type Val struct {
	Node *model.Node
	Rel  *model.Rel
	S    model.Value
}

// ScalarVal wraps a scalar.
func ScalarVal(v model.Value) Val { return Val{S: v} }

// NodeVal wraps a node.
func NodeVal(n *model.Node) Val { return Val{Node: n} }

// RelVal wraps a relationship.
func RelVal(r *model.Rel) Val { return Val{Rel: r} }

// String renders the cell for display.
func (v Val) String() string {
	switch {
	case v.Node != nil:
		return fmt.Sprintf("(n%d%v %v)", v.Node.ID, v.Node.Labels, v.Node.Props)
	case v.Rel != nil:
		return fmt.Sprintf("[r%d %d->%d:%s]", v.Rel.ID, v.Rel.Src, v.Rel.Tgt, v.Rel.Label)
	default:
		return v.S.String()
	}
}

// Result is a query result table.
type Result struct {
	Columns []string
	Rows    [][]Val
	// Write summary counters.
	NodesCreated, RelsCreated, PropsSet, NodesDeleted, RelsDeleted int
	// CommitTS is the commit timestamp of a write statement.
	CommitTS model.Timestamp
}

// Engine executes temporal Cypher against a host + Aion system.
//
// Concurrency contract: any number of read statements may execute
// concurrently with each other (reads take no engine lock — the host graph
// and the temporal stores synchronize internally). Write statements divide
// in two classes. Blind CREATE statements only ever add entities under
// fresh ids, so they cannot conflict with one another: they stage and
// commit concurrently, sharing a group-commit round (one fsync for all of
// them) in the host's pipeline. Read-modify-write statements (MATCH with
// SET/DELETE/CREATE clauses) are still mutually exclusive — with each other
// AND with in-flight CREATEs — so their matched bindings cannot be
// invalidated by a concurrent writer between match and commit. Reads never
// block behind anything.
type Engine struct {
	Sys   *system.System
	procs map[string]Proc

	// writeMu is the write-statement lock: blind CREATEs take the read
	// side (concurrent with each other), MATCH-writes the write side
	// (exclusive). Reads take neither.
	writeMu sync.RWMutex
}

// NewEngine creates an engine with the built-in temporal procedures
// registered.
func NewEngine(sys *system.System) *Engine {
	e := &Engine{Sys: sys, procs: map[string]Proc{}}
	registerBuiltins(e)
	return e
}

// Register adds a procedure.
func (e *Engine) Register(name string, p Proc) { e.procs[name] = p }

// QueryContext parses and executes one statement under ctx: pattern-match
// loops, temporal store scans, and procedures all observe cancellation
// cooperatively and return ctx.Err() shortly after the context fires.
func (e *Engine) QueryContext(c context.Context, q string, params map[string]model.Value) (*Result, error) {
	st, err := Parse(q)
	if err != nil {
		return nil, err
	}
	return e.ExecContext(c, st, params)
}

// IsWrite reports whether st mutates the graph (and must therefore hold a
// side of the write lock). Exported so serving layers can route or reject
// writes (replicas are read-only) before execution.
func IsWrite(st *Statement) bool {
	if st.Create != nil {
		return true
	}
	if m := st.Match; m != nil {
		return len(m.Sets) > 0 || len(m.Deletes) > 0 || len(m.Creates) > 0
	}
	return false
}

// isBlindCreate reports whether st only creates new entities (a bare CREATE
// with no MATCH part): such statements allocate fresh ids and reference no
// pre-existing state, so they can run concurrently and coalesce in the
// host's group-commit pipeline.
func isBlindCreate(st *Statement) bool {
	return st.Create != nil && st.Match == nil
}

// ExecContext executes a parsed statement under ctx. Blind CREATEs share
// the write lock (staging concurrently, conflict-free by construction);
// MATCH-writes hold it exclusively; reads run lock-free.
func (e *Engine) ExecContext(c context.Context, st *Statement, params map[string]model.Value) (*Result, error) {
	if c == nil {
		c = context.Background()
	}
	if IsWrite(st) {
		if isBlindCreate(st) {
			e.writeMu.RLock()
			defer e.writeMu.RUnlock()
		} else {
			e.writeMu.Lock()
			defer e.writeMu.Unlock()
		}
		// A write that spent its deadline queueing behind other writers
		// should not start applying updates.
		if err := c.Err(); err != nil {
			return nil, err
		}
	}
	ctx := &execCtx{e: e, c: c, params: params}
	switch {
	case st.Call != nil:
		return e.execCall(ctx, st)
	case st.Create != nil:
		return e.execCreate(ctx, st.Create)
	case st.Match != nil:
		return e.execMatch(ctx, st)
	}
	return nil, fmt.Errorf("cypher: empty statement")
}

type execCtx struct {
	e      *Engine
	c      context.Context
	params map[string]model.Value
	steps  int
}

// checkCancel is the engine's cooperative cancellation point, called from
// the pattern-matching and projection loops. The real ctx.Err() load is
// strided (every 256 steps) so the check stays invisible in match profiles.
func (ctx *execCtx) checkCancel() error {
	ctx.steps++
	if ctx.steps&255 == 0 {
		return ctx.c.Err()
	}
	return nil
}

// bindings maps pattern variables to matched entities.
type bindings map[string]Val

func (b bindings) clone() bindings {
	c := make(bindings, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// evalScalar evaluates an expression to a scalar in a binding environment.
func (ctx *execCtx) evalScalar(env bindings, ex Expr) (model.Value, error) {
	switch x := ex.(type) {
	case Lit:
		return x.V, nil
	case Param:
		v, ok := ctx.params[x.Name]
		if !ok {
			return model.Value{}, fmt.Errorf("cypher: missing parameter $%s", x.Name)
		}
		return v, nil
	case VarRef:
		v, ok := env[x.Name]
		if !ok {
			return model.Value{}, fmt.Errorf("cypher: unbound variable %s", x.Name)
		}
		if v.Node != nil {
			return model.IntValue(int64(v.Node.ID)), nil
		}
		if v.Rel != nil {
			return model.IntValue(int64(v.Rel.ID)), nil
		}
		return v.S, nil
	case PropAccess:
		v, ok := env[x.Var]
		if !ok {
			return model.Value{}, fmt.Errorf("cypher: unbound variable %s", x.Var)
		}
		switch {
		case v.Node != nil:
			return v.Node.Props[x.Prop], nil
		case v.Rel != nil:
			return v.Rel.Props[x.Prop], nil
		}
		return model.Value{}, fmt.Errorf("cypher: %s is not an entity", x.Var)
	case IDCall:
		v, ok := env[x.Var]
		if !ok {
			return model.Value{}, fmt.Errorf("cypher: unbound variable %s", x.Var)
		}
		switch {
		case v.Node != nil:
			return model.IntValue(int64(v.Node.ID)), nil
		case v.Rel != nil:
			return model.IntValue(int64(v.Rel.ID)), nil
		}
		return model.Value{}, fmt.Errorf("cypher: id() of non-entity %s", x.Var)
	case BinOp:
		return ctx.evalBinOp(env, x)
	case NotOp:
		v, err := ctx.evalScalar(env, x.E)
		if err != nil {
			return model.Value{}, err
		}
		return model.BoolValue(!truthy(v)), nil
	case AppTimeFilter:
		return ctx.evalAppTime(env, x)
	case CountCall:
		return model.Value{}, fmt.Errorf("cypher: COUNT is only allowed in RETURN")
	}
	return model.Value{}, fmt.Errorf("cypher: unsupported expression %T", ex)
}

func truthy(v model.Value) bool {
	switch v.Kind() {
	case model.KindBool:
		return v.Bool()
	case model.KindNull:
		return false
	case model.KindInt:
		return v.Int() != 0
	}
	return true
}

func (ctx *execCtx) evalBinOp(env bindings, x BinOp) (model.Value, error) {
	l, err := ctx.evalScalar(env, x.L)
	if err != nil {
		return model.Value{}, err
	}
	if x.Op == "AND" && !truthy(l) {
		return model.BoolValue(false), nil
	}
	if x.Op == "OR" && truthy(l) {
		return model.BoolValue(true), nil
	}
	r, err := ctx.evalScalar(env, x.R)
	if err != nil {
		return model.Value{}, err
	}
	switch x.Op {
	case "AND":
		return model.BoolValue(truthy(r)), nil
	case "OR":
		return model.BoolValue(truthy(r)), nil
	case "=":
		return model.BoolValue(l.Compare(r) == 0), nil
	case "<>":
		return model.BoolValue(l.Compare(r) != 0), nil
	case "<":
		return model.BoolValue(l.Compare(r) < 0), nil
	case "<=":
		return model.BoolValue(l.Compare(r) <= 0), nil
	case ">":
		return model.BoolValue(l.Compare(r) > 0), nil
	case ">=":
		return model.BoolValue(l.Compare(r) >= 0), nil
	case "+":
		if l.Kind() == model.KindString || r.Kind() == model.KindString {
			return model.StringValue(l.Str() + r.Str()), nil
		}
		if l.Kind() == model.KindFloat || r.Kind() == model.KindFloat {
			return model.FloatValue(l.Float() + r.Float()), nil
		}
		return model.IntValue(l.Int() + r.Int()), nil
	}
	return model.Value{}, fmt.Errorf("cypher: unknown operator %s", x.Op)
}

// evalAppTime implements the bitemporal WHERE filter (Sec 4.5): true iff
// every bound entity's application-time interval is contained in [a, b];
// entities without application time fall back to system time (pass).
func (ctx *execCtx) evalAppTime(env bindings, x AppTimeFilter) (model.Value, error) {
	av, err := ctx.evalScalar(env, x.A)
	if err != nil {
		return model.Value{}, err
	}
	bv, err := ctx.evalScalar(env, x.B)
	if err != nil {
		return model.Value{}, err
	}
	win := model.Interval{Start: model.Timestamp(av.Int()), End: model.Timestamp(bv.Int()) + 1}
	for _, v := range env {
		var iv model.Interval
		switch {
		case v.Node != nil:
			iv = v.Node.AppInterval()
		case v.Rel != nil:
			iv = v.Rel.AppInterval()
		default:
			continue
		}
		if iv.Start == 0 && iv.End == model.TSInfinity {
			continue // unset: system time already filtered
		}
		if !(iv.Start >= win.Start && iv.End <= win.End) {
			return model.BoolValue(false), nil
		}
	}
	return model.BoolValue(true), nil
}

// --- MATCH ------------------------------------------------------------------

func (e *Engine) execMatch(ctx *execCtx, st *Statement) (*Result, error) {
	m := st.Match
	if len(m.Sets) > 0 || len(m.Deletes) > 0 || len(m.Creates) > 0 {
		if st.Temporal.Kind != TemporalNone {
			return nil, fmt.Errorf("cypher: write clauses cannot target historical versions")
		}
		return e.execMatchWrite(ctx, m)
	}
	window, err := st.Temporal.Window(func(ex Expr) (model.Value, error) {
		return ctx.evalScalar(bindings{}, ex)
	})
	if err != nil {
		return nil, err
	}

	var rows []bindings
	switch {
	case st.Temporal.Kind == TemporalNone:
		// Latest graph: a normal read transaction, unaffected by Aion.
		// View avoids cloning; entity pointers stay valid after it
		// returns because mutations replace entity objects.
		e.Sys.Host.View(func(g *memgraph.Graph) {
			rows, err = e.matchOnGraph(ctx, g, m)
		})
	case window.Start == window.End:
		// AS OF: point-in-time. Anchored single-entity lookups go through
		// the LineageStore; everything else materializes the snapshot.
		rows, err = e.matchAsOf(ctx, m, window.Start)
	default:
		// Range: history semantics for anchored single-node lookups, and
		// window-graph matching otherwise.
		rows, err = e.matchRange(ctx, m, window)
	}
	if err != nil {
		return nil, err
	}
	return e.project(ctx, m, rows)
}

// anchorID extracts an `id(var) = <const>` (or `id(var) = $param`)
// equality from the WHERE conjunction for the given variable.
func (ctx *execCtx) anchorID(where Expr, varName string) (int64, bool) {
	var walk func(ex Expr) (int64, bool)
	walk = func(ex Expr) (int64, bool) {
		b, ok := ex.(BinOp)
		if !ok {
			return 0, false
		}
		if b.Op == "AND" {
			if id, ok := walk(b.L); ok {
				return id, true
			}
			return walk(b.R)
		}
		if b.Op != "=" {
			return 0, false
		}
		idc, lok := b.L.(IDCall)
		if lok && idc.Var == varName {
			if v, err := ctx.evalScalar(bindings{}, b.R); err == nil && v.Kind() == model.KindInt {
				return v.Int(), true
			}
		}
		idc, rok := b.R.(IDCall)
		if rok && idc.Var == varName {
			if v, err := ctx.evalScalar(bindings{}, b.L); err == nil && v.Kind() == model.KindInt {
				return v.Int(), true
			}
		}
		return 0, false
	}
	if where == nil {
		return 0, false
	}
	return walk(where)
}

// matchAsOf plans a point-in-time match (Sec 5.1): anchored single-node or
// anchored expansion patterns use the temporal API directly; otherwise the
// full snapshot is constructed.
func (e *Engine) matchAsOf(ctx *execCtx, m *MatchStmt, ts model.Timestamp) ([]bindings, error) {
	ad := e.Sys.Aion
	if ad == nil {
		return nil, fmt.Errorf("cypher: temporal clause requires Aion")
	}
	// Anchored single node: LineageStore point query.
	if len(m.Patterns) == 1 && len(m.Patterns[0].Nodes) == 1 {
		np := m.Patterns[0].Nodes[0]
		if id, ok := ctx.anchorID(m.Where, np.Var); ok {
			ns, err := ad.GetNodeContext(ctx.c, model.NodeID(id), ts, ts)
			if err != nil {
				return nil, err
			}
			var rows []bindings
			for _, n := range ns {
				if nodeMatches(ctx, n, np) {
					env := bindings{np.Var: NodeVal(n)}
					if keep, err := ctx.applyWhere(env, m.Where); err != nil {
						return nil, err
					} else if keep {
						rows = append(rows, env)
					}
				}
			}
			return rows, nil
		}
	}
	// Anchored variable-hop expansion: the Expand API (Alg 1, planner
	// chooses the store).
	if len(m.Patterns) == 1 && len(m.Patterns[0].Nodes) == 2 &&
		len(m.Patterns[0].Rels) == 1 && m.Patterns[0].Rels[0].VarHops {
		np := m.Patterns[0].Nodes[0]
		rp := m.Patterns[0].Rels[0]
		if id, ok := ctx.anchorID(m.Where, np.Var); ok && rp.Type == "" {
			start, err := ad.GetNodeContext(ctx.c, model.NodeID(id), ts, ts)
			if err != nil || len(start) == 0 {
				return nil, err
			}
			res, err := ad.ExpandContext(ctx.c, model.NodeID(id), rp.Dir, rp.MaxHops, ts)
			if err != nil {
				return nil, err
			}
			var rows []bindings
			mp := m.Patterns[0].Nodes[1]
			for hop := rp.MinHops - 1; hop < len(res); hop++ {
				for _, n := range res[hop] {
					if !nodeMatches(ctx, n, mp) {
						continue
					}
					env := bindings{}
					if np.Var != "" {
						env[np.Var] = NodeVal(start[0])
					}
					if mp.Var != "" {
						env[mp.Var] = NodeVal(n)
					}
					if keep, err := ctx.applyWhere(env, m.Where); err != nil {
						return nil, err
					} else if keep {
						rows = append(rows, env)
					}
				}
			}
			return rows, nil
		}
	}
	// General case: materialize the snapshot.
	g, err := ad.GraphAtContext(ctx.c, ts)
	if err != nil {
		return nil, err
	}
	return e.matchOnGraph(ctx, g, m)
}

// matchRange serves history queries over [start, end): anchored single-node
// patterns return one row per version (Fig 1a); other patterns match the
// window graph.
func (e *Engine) matchRange(ctx *execCtx, m *MatchStmt, win model.Interval) ([]bindings, error) {
	ad := e.Sys.Aion
	if ad == nil {
		return nil, fmt.Errorf("cypher: temporal clause requires Aion")
	}
	if len(m.Patterns) == 1 && len(m.Patterns[0].Nodes) == 1 {
		np := m.Patterns[0].Nodes[0]
		if id, ok := ctx.anchorID(m.Where, np.Var); ok {
			ns, err := ad.GetNodeContext(ctx.c, model.NodeID(id), win.Start, win.End)
			if err != nil {
				return nil, err
			}
			var rows []bindings
			for _, n := range ns {
				if nodeMatches(ctx, n, np) {
					env := bindings{np.Var: NodeVal(n)}
					if keep, err := ctx.applyWhere(env, m.Where); err != nil {
						return nil, err
					} else if keep {
						rows = append(rows, env)
					}
				}
			}
			return rows, nil
		}
	}
	g, err := ad.GetWindowContext(ctx.c, win.Start, win.End)
	if err != nil {
		return nil, err
	}
	return e.matchOnGraph(ctx, g, m)
}

func (ctx *execCtx) applyWhere(env bindings, where Expr) (bool, error) {
	if where == nil {
		return true, nil
	}
	v, err := ctx.evalScalar(env, where)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

func nodeMatches(ctx *execCtx, n *model.Node, np NodePattern) bool {
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false
		}
	}
	for k, ex := range np.Props {
		want, err := ctx.evalScalar(bindings{}, ex)
		if err != nil {
			return false
		}
		got, ok := n.Props[k]
		if !ok || !got.Equal(want) {
			return false
		}
	}
	return true
}

func relMatches(ctx *execCtx, r *model.Rel, rp RelPattern) bool {
	if rp.Type != "" && r.Label != rp.Type {
		return false
	}
	for k, ex := range rp.Props {
		want, err := ctx.evalScalar(bindings{}, ex)
		if err != nil {
			return false
		}
		got, ok := r.Props[k]
		if !ok || !got.Equal(want) {
			return false
		}
	}
	return true
}

// matchOnGraph runs backtracking pattern matching over a materialized
// snapshot: each comma-separated pattern extends the binding environments
// (a join on shared variables), and WHERE filters the final rows.
func (e *Engine) matchOnGraph(ctx *execCtx, g *memgraph.Graph, m *MatchStmt) ([]bindings, error) {
	envs := []bindings{{}}
	for _, pat := range m.Patterns {
		var next []bindings
		for _, env := range envs {
			if err := ctx.checkCancel(); err != nil {
				return nil, err
			}
			matched, err := e.matchPattern(ctx, g, pat, env, m.Where)
			if err != nil {
				return nil, err
			}
			next = append(next, matched...)
		}
		envs = next
		if len(envs) == 0 {
			return nil, nil
		}
	}
	var rows []bindings
	for _, env := range envs {
		if err := ctx.checkCancel(); err != nil {
			return nil, err
		}
		keep, err := ctx.applyWhere(env, m.Where)
		if err != nil {
			return nil, err
		}
		if keep {
			rows = append(rows, env)
		}
	}
	return rows, nil
}

// matchPattern matches one path pattern starting from a seed environment,
// returning the extended environments (WHERE is applied later by the
// caller; the where expression here is only used for id-anchor pruning).
func (e *Engine) matchPattern(ctx *execCtx, g *memgraph.Graph, pat PathPattern, seed bindings, where Expr) ([]bindings, error) {
	var rows []bindings

	// Candidate set for the first node: a prior binding or an id anchor
	// avoids the full scan.
	first := pat.Nodes[0]
	var candidates []*model.Node
	if first.Var != "" {
		if bound, ok := seed[first.Var]; ok && bound.Node != nil {
			if n := g.Node(bound.Node.ID); n != nil {
				candidates = []*model.Node{n}
			}
		}
	}
	if candidates == nil {
		if id, ok := ctx.anchorID(where, first.Var); ok {
			if n := g.Node(model.NodeID(id)); n != nil {
				candidates = []*model.Node{n}
			}
		} else {
			g.ForEachNode(func(n *model.Node) bool {
				candidates = append(candidates, n)
				return true
			})
		}
	}

	var extend func(env bindings, step int, cur *model.Node) error
	extend = func(env bindings, step int, cur *model.Node) error {
		if err := ctx.checkCancel(); err != nil {
			return err
		}
		if step == len(pat.Rels) {
			rows = append(rows, env.clone())
			return nil
		}
		rp := pat.Rels[step]
		np := pat.Nodes[step+1]
		tryNeighbour := func(r *model.Rel, nb model.NodeID) error {
			n := g.Node(nb)
			if n == nil || !relMatches(ctx, r, rp) || !nodeMatches(ctx, n, np) {
				return nil
			}
			// Bind and recurse; respect already-bound variables.
			if np.Var != "" {
				if prev, ok := env[np.Var]; ok {
					if prev.Node == nil || prev.Node.ID != n.ID {
						return nil
					}
				}
			}
			saveN, hadN := env[np.Var]
			saveR, hadR := env[rp.Var]
			if np.Var != "" {
				env[np.Var] = NodeVal(n)
			}
			if rp.Var != "" {
				env[rp.Var] = RelVal(r)
			}
			err := extend(env, step+1, n)
			if np.Var != "" {
				if hadN {
					env[np.Var] = saveN
				} else {
					delete(env, np.Var)
				}
			}
			if rp.Var != "" {
				if hadR {
					env[rp.Var] = saveR
				} else {
					delete(env, rp.Var)
				}
			}
			return err
		}

		if rp.VarHops {
			// Variable-length expansion with per-hop frontier (Alg 1).
			type hopNode struct {
				id  model.NodeID
				rel *model.Rel
			}
			frontier := []hopNode{{id: cur.ID}}
			seen := map[model.NodeID]bool{cur.ID: true}
			for hop := 1; hop <= rp.MaxHops; hop++ {
				var next []hopNode
				for _, hn := range frontier {
					var gerr error
					if gerr = ctx.checkCancel(); gerr != nil {
						return gerr
					}
					g.Neighbours(hn.id, rp.Dir, func(r *model.Rel, nb model.NodeID) bool {
						if rp.Type != "" && r.Label != rp.Type {
							return true
						}
						if seen[nb] {
							return true
						}
						seen[nb] = true
						next = append(next, hopNode{id: nb, rel: r})
						return true
					})
					if gerr != nil {
						return gerr
					}
				}
				frontier = next
				if hop >= rp.MinHops {
					for _, hn := range frontier {
						if err := tryNeighbour(hn.rel, hn.id); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}

		var ferr error
		g.Neighbours(cur.ID, rp.Dir, func(r *model.Rel, nb model.NodeID) bool {
			if err := tryNeighbour(r, nb); err != nil {
				ferr = err
				return false
			}
			return true
		})
		return ferr
	}

	for _, n := range candidates {
		if err := ctx.checkCancel(); err != nil {
			return nil, err
		}
		if !nodeMatches(ctx, n, first) {
			continue
		}
		env := seed.clone()
		if first.Var != "" {
			env[first.Var] = NodeVal(n)
		}
		if err := extend(env, 0, n); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// project evaluates the RETURN items (with COUNT aggregation, ORDER BY, and
// LIMIT).
func (e *Engine) project(ctx *execCtx, m *MatchStmt, rows []bindings) (*Result, error) {
	res := &Result{}
	hasCount := false
	for _, item := range m.Return {
		if _, ok := item.E.(CountCall); ok {
			hasCount = true
		}
		res.Columns = append(res.Columns, returnName(item))
	}
	if hasCount {
		out := make([]Val, len(m.Return))
		for i, item := range m.Return {
			if _, ok := item.E.(CountCall); ok {
				out[i] = ScalarVal(model.IntValue(int64(len(rows))))
			} else if len(rows) > 0 {
				v, err := ctx.evalVal(rows[0], item.E)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
		}
		res.Rows = [][]Val{out}
		return res, nil
	}
	for _, env := range rows {
		if err := ctx.checkCancel(); err != nil {
			return nil, err
		}
		out := make([]Val, len(m.Return))
		for i, item := range m.Return {
			v, err := ctx.evalVal(env, item.E)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	if len(m.Order) > 0 {
		keys := make([][]model.Value, len(res.Rows))
		for i, env := range rows {
			for _, ob := range m.Order {
				v, err := ctx.evalScalar(env, ob.E)
				if err != nil {
					return nil, err
				}
				keys[i] = append(keys[i], v)
			}
		}
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for k, ob := range m.Order {
				c := keys[idx[a]][k].Compare(keys[idx[b]][k])
				if c != 0 {
					if ob.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		sorted := make([][]Val, len(res.Rows))
		for i, j := range idx {
			sorted[i] = res.Rows[j]
		}
		res.Rows = sorted
	}
	if m.Limit > 0 && len(res.Rows) > m.Limit {
		res.Rows = res.Rows[:m.Limit]
	}
	return res, nil
}

func returnName(item ReturnItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch x := item.E.(type) {
	case VarRef:
		return x.Name
	case PropAccess:
		return x.Var + "." + x.Prop
	case IDCall:
		return "id(" + x.Var + ")"
	case CountCall:
		return "count"
	}
	return "expr"
}

// evalVal evaluates a RETURN expression, preserving entity values.
func (ctx *execCtx) evalVal(env bindings, ex Expr) (Val, error) {
	if vr, ok := ex.(VarRef); ok {
		if v, ok := env[vr.Name]; ok {
			return v, nil
		}
	}
	s, err := ctx.evalScalar(env, ex)
	if err != nil {
		return Val{}, err
	}
	return ScalarVal(s), nil
}
