package enact

import (
	"fmt"
	"strings"
	"sync"

	"ediflow/internal/database"
	"ediflow/internal/module"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
	"ediflow/internal/wf"
)

// ActivityState tracks one activity instance within a process instance.
type ActivityState struct {
	ID       int64
	Activity *wf.Activity
	Status   string
	// invalidated marks activities skipped by an untriggered OR-split
	// branch or a false IF condition: they never executed, so update
	// propagation must not repair them.
	invalidated bool
	// performer is the resolved user for group-bound activities ("" =
	// the process starter).
	performer string

	// proc is the live procedure object (call activities), kept so delta
	// handlers can be invoked while running and after completion.
	proc module.Procedure
	env  *module.Env
}

// Instance is one running (or finished) process instance.
type Instance struct {
	ID      int64
	Process *wf.Process

	eng  *Engine
	user string
	// managed names the relations under isolation (lower-cased). Start
	// fills it before the instance runs; nothing writes it after, so it
	// is read without mu.
	managed map[string]bool

	mu       sync.Mutex
	vars     map[string]types.Value
	snapshot int64
	status   string
	err      error
	acts     map[string]*ActivityState
	temp     map[string]string // temporary relation → physical table

	done chan struct{}
}

// Status returns the instance status (running/completed/failed).
func (in *Instance) Status() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.status
}

// Err returns the failure cause, if the instance failed.
func (in *Instance) Err() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.err
}

// Wait blocks until the instance terminates and returns its error.
func (in *Instance) Wait() error {
	<-in.done
	return in.Err()
}

// Done exposes the completion channel.
func (in *Instance) Done() <-chan struct{} { return in.done }

// Var reads a process variable (or constant).
func (in *Instance) Var(name string) (types.Value, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	v, ok := in.vars[strings.ToLower(name)]
	return v, ok
}

// SetVar writes a process variable.
func (in *Instance) SetVar(name string, v types.Value) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.vars[strings.ToLower(name)] = v
}

// Snapshot returns the instance's current visibility stamp.
func (in *Instance) Snapshot() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.snapshot
}

// ActivityStatus returns the status of one activity instance.
func (in *Instance) ActivityStatus(name string) (string, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.acts[strings.ToLower(name)]
	if !ok {
		return "", false
	}
	return st.Status, true
}

// run executes the body and finalizes the instance.
func (in *Instance) run() {
	err := in.setupTempRelations()
	if err == nil {
		err = in.runNode(in.Process.Body)
	}
	in.teardownTempRelations()

	end := in.eng.db.Store().CurrentStamp()
	status := database.StatusCompleted
	if err != nil {
		status = StatusFailed
		in.eng.logf("process %s instance %d failed: %v", in.Process.Name, in.ID, err)
	}
	in.mu.Lock()
	in.status = status
	in.err = err
	in.mu.Unlock()
	in.eng.db.Exec("UPDATE "+database.TableProcessInstance+" SET status = ?, end_ts = ? WHERE id = ?",
		types.NewString(status), types.NewInt(end), types.NewInt(in.ID))
	// §VI-A: stamp pending logical deletions and GC what became safe.
	if gcErr := in.eng.iso.FinishProcess(in.ID); gcErr != nil {
		in.eng.logf("isolation GC after instance %d: %v", in.ID, gcErr)
	}
	close(in.done)
}

func (in *Instance) setupTempRelations() error {
	for i := range in.Process.Relations {
		rel := &in.Process.Relations[i]
		if !rel.Temporary {
			continue
		}
		phys := fmt.Sprintf("tmp_%d_%s", in.ID, strings.ToLower(rel.Name))
		if err := in.eng.createRelation(phys, rel); err != nil {
			return err
		}
		in.mu.Lock()
		in.temp[strings.ToLower(rel.Name)] = phys
		in.mu.Unlock()
	}
	return nil
}

func (in *Instance) teardownTempRelations() {
	in.mu.Lock()
	temps := make([]string, 0, len(in.temp))
	for _, phys := range in.temp {
		temps = append(temps, phys)
	}
	in.mu.Unlock()
	for _, phys := range temps {
		in.eng.db.Exec("DROP TABLE IF EXISTS " + phys)
	}
}

// resolveRelation maps a declared relation name to its physical table
// (temporary relations are per-instance).
func (in *Instance) resolveRelation(name string) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if phys, ok := in.temp[strings.ToLower(name)]; ok {
		return phys
	}
	return name
}

// ------------------------------------------------------------ body walk

func (in *Instance) runNode(n wf.Node) error {
	switch x := n.(type) {
	case *wf.Sequence:
		for _, c := range x.Children {
			if err := in.runNode(c); err != nil {
				return err
			}
		}
		return nil
	case *wf.AndSplit:
		// Parallel split; the join waits for every branch (§V: P ∥ P).
		errs := make([]error, len(x.Branches))
		var wg sync.WaitGroup
		for i, b := range x.Branches {
			wg.Add(1)
			go func(i int, b wf.Node) {
				defer wg.Done()
				errs[i] = in.runNode(b)
			}(i, b)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	case *wf.OrSplit:
		// Guarded choice: the first branch whose condition holds is
		// triggered; the others are invalidated (§V: once a branch is
		// triggered, the other can no longer be triggered).
		chosen := -1
		for i, cond := range x.Conditions {
			if cond == "" {
				chosen = i
				break
			}
			ok, err := in.evalCondition(cond)
			if err != nil {
				return fmt.Errorf("enact: orSplit condition %q: %w", cond, err)
			}
			if ok {
				chosen = i
				break
			}
		}
		if chosen < 0 {
			return fmt.Errorf("enact: no orSplit branch is eligible")
		}
		// Invalidate the untriggered branches' activities.
		for i, b := range x.Branches {
			if i == chosen {
				continue
			}
			for _, a := range b.Activities(nil) {
				in.markActivity(a.Name, database.StatusCompleted, true)
			}
		}
		return in.runNode(x.Branches[chosen])
	case *wf.If:
		ok, err := in.evalCondition(x.Condition)
		if err != nil {
			return fmt.Errorf("enact: if condition %q: %w", x.Condition, err)
		}
		if !ok {
			for _, a := range x.Then.Activities(nil) {
				in.markActivity(a.Name, database.StatusCompleted, true)
			}
			return nil
		}
		return in.runNode(x.Then)
	case *wf.Activity:
		return in.runActivity(x)
	}
	return fmt.Errorf("enact: unknown node %T", n)
}

// markActivity transitions an activity instance's status (and start/end
// stamps). invalidated marks skipped activities as completed without
// execution.
func (in *Instance) markActivity(name, status string, invalidated bool) {
	in.mu.Lock()
	st, ok := in.acts[strings.ToLower(name)]
	performer := in.user
	if ok {
		st.Status = status
		if invalidated {
			st.invalidated = true
		}
		if st.performer != "" {
			performer = st.performer
		}
	}
	in.mu.Unlock()
	if !ok {
		return
	}
	stamp := in.eng.db.Store().CurrentStamp()
	switch status {
	case database.StatusRunning:
		in.eng.db.Exec("UPDATE "+database.TableActivityInstance+" SET status = ?, start_ts = ?, username = ? WHERE id = ?",
			types.NewString(status), types.NewInt(stamp), types.NewString(performer), types.NewInt(st.ID))
	default:
		if invalidated {
			in.eng.db.Exec("UPDATE "+database.TableActivityInstance+" SET status = ? WHERE id = ?",
				types.NewString(status), types.NewInt(st.ID))
		} else {
			in.eng.db.Exec("UPDATE "+database.TableActivityInstance+" SET status = ?, end_ts = ? WHERE id = ?",
				types.NewString(status), types.NewInt(stamp), types.NewInt(st.ID))
		}
	}
}

// ------------------------------------------------------------ activities

func (in *Instance) runActivity(a *wf.Activity) error {
	// Role resolution (§IV-A: "an activity must be performed by a
	// different group of users"): when the activity names a group, the
	// performing user must belong to it — the starter if they are a
	// member, otherwise any registered member of the group.
	if a.Group != "" {
		performer, err := in.resolvePerformer(a.Group)
		if err != nil {
			in.markActivity(a.Name, StatusFailed, false)
			return fmt.Errorf("enact: activity %q: %w", a.Name, err)
		}
		if st := in.activityState(a.Name); st != nil {
			in.mu.Lock()
			st.performer = performer
			in.mu.Unlock()
		}
	}
	in.markActivity(a.Name, database.StatusRunning, false)
	err := in.execActivity(a)
	if err != nil {
		in.markActivity(a.Name, StatusFailed, false)
		return fmt.Errorf("enact: activity %q: %w", a.Name, err)
	}
	in.markActivity(a.Name, database.StatusCompleted, false)
	return nil
}

// resolvePerformer picks the user carrying out a group-bound activity.
func (in *Instance) resolvePerformer(group string) (string, error) {
	ok, err := in.eng.db.UserInGroup(in.user, group)
	if err != nil {
		return "", err
	}
	if ok {
		return in.user, nil
	}
	res, err := in.eng.db.Query(
		"SELECT username FROM "+database.TableUserGroup+" WHERE grp = ? ORDER BY username LIMIT 1",
		types.NewString(group))
	if err != nil {
		return "", err
	}
	if len(res.Rows) > 0 {
		return res.Rows[0][0].Str(), nil
	}
	// No registered members: the starter acts in the role (groups are
	// created at deploy time; membership is optional in small setups).
	return in.user, nil
}

func (in *Instance) execActivity(a *wf.Activity) error {
	switch a.Kind {
	case wf.KindAssign:
		v, err := in.evalScalarAs(a.Expr, in.activityID(a.Name))
		if err != nil {
			return err
		}
		in.SetVar(a.Variable, v)
		return nil
	case wf.KindUpdate, wf.KindRunQuery:
		return in.execSQLActivity(a)
	case wf.KindCall:
		return in.execCall(a)
	case wf.KindAskUser:
		st := in.activityState(a.Name)
		answer, err := in.eng.agent.Ask(a.Prompt, a.Group, in.ID, st.ID)
		if err != nil {
			return err
		}
		if a.BindTo != "" {
			in.SetVar(a.BindTo, types.NewString(answer))
		}
		return nil
	}
	return fmt.Errorf("unknown activity kind %q", a.Kind)
}

func (in *Instance) activityState(name string) *ActivityState {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.acts[strings.ToLower(name)]
}

// activityID returns the database id of an activity instance (0 if
// unknown).
func (in *Instance) activityID(name string) int64 {
	if st := in.activityState(name); st != nil {
		return st.ID
	}
	return 0
}

// advanceSnapshot moves the instance's visibility stamp to "now" after the
// instance performs its own DML: a process must see its own effects, so
// its snapshot advances past every statement it executes. (External writes
// that serialized in between become visible too — the engine's single
// writer makes this window explicit; strict start-time isolation applies
// to instances that do not write, per §V option 1.)
func (in *Instance) advanceSnapshot() {
	stamp := in.eng.db.Store().CurrentStamp()
	in.mu.Lock()
	if stamp > in.snapshot {
		in.snapshot = stamp
	}
	in.mu.Unlock()
	in.eng.db.Exec("UPDATE "+database.TableProcessInstance+" SET snapshot = ? WHERE id = ?",
		types.NewInt(stamp), types.NewInt(in.ID))
}

// execSQLActivity runs a declarative update or query with variable
// substitution, temporary-relation renaming and (for SELECT) the §VI-A
// isolation rewrite.
func (in *Instance) execSQLActivity(a *wf.Activity) error {
	stmts, err := in.prepareSQL(a.SQL, in.activityID(a.Name))
	if err != nil {
		return err
	}
	for _, st := range stmts {
		switch s := st.(type) {
		case *sqltext.Select:
			in.eng.iso.Restrict(s, in.ID, in.Snapshot(), in.managed)
			res, err := in.eng.db.ExecStmt(s)
			if err != nil {
				return err
			}
			in.SetVar("_rowcount", types.NewInt(int64(len(res.Rows))))
		case *sqltext.Delete:
			// Deletions go through the deletion table (§VI-A), never
			// physically removing tuples mid-process.
			if in.managed[strings.ToLower(s.Table)] {
				n, err := in.eng.iso.LogicalDelete(s, in.ID)
				if err != nil {
					return err
				}
				in.SetVar("_rowcount", types.NewInt(int64(n)))
			} else {
				res, err := in.eng.db.ExecStmt(s)
				if err != nil {
					return err
				}
				in.SetVar("_rowcount", types.NewInt(int64(res.Affected)))
			}
			in.advanceSnapshot()
		default:
			res, err := in.eng.db.ExecStmt(st)
			if err != nil {
				return err
			}
			in.SetVar("_rowcount", types.NewInt(int64(res.Affected)))
			in.advanceSnapshot()
		}
	}
	return nil
}

// prepareSQL substitutes $variables, renames temporary relations and
// parses the script.
func (in *Instance) prepareSQL(sqlText string, aid int64) ([]sqltext.Statement, error) {
	sqlText = in.substituteVars(sqlText, aid)
	stmts, err := sqltext.ParseScript(sqlText)
	if err != nil {
		return nil, err
	}
	for _, st := range stmts {
		renameTables(st, in.resolveRelation)
	}
	return stmts, nil
}

// substituteVars replaces $name tokens with SQL literals of the variable
// or constant values. Builtins: $pid (process instance id), $aid (the id
// of the activity instance currently executing — the Figure 3 createdBy
// provenance hook), $snapshot, $user.
func (in *Instance) substituteVars(s string, aid int64) string {
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '$' {
			sb.WriteByte(s[i])
			i++
			continue
		}
		j := i + 1
		for j < len(s) && (isWordByte(s[j])) {
			j++
		}
		name := s[i+1 : j]
		switch strings.ToLower(name) {
		case "pid":
			sb.WriteString(fmt.Sprintf("%d", in.ID))
		case "aid":
			sb.WriteString(fmt.Sprintf("%d", aid))
		case "snapshot":
			sb.WriteString(fmt.Sprintf("%d", in.Snapshot()))
		case "user":
			sb.WriteString(types.NewString(in.user).SQLLiteral())
		default:
			if v, ok := in.Var(name); ok {
				sb.WriteString(v.SQLLiteral())
			} else {
				sb.WriteString(s[i:j]) // leave unknown tokens alone
			}
		}
		i = j
	}
	return sb.String()
}

func isWordByte(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

// evalCondition evaluates a boolean process expression ("n > 3").
func (in *Instance) evalCondition(expr string) (bool, error) {
	v, err := in.evalScalar(expr)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return v.AsBool()
}

// evalScalar evaluates a scalar expression with variables substituted,
// via a one-row SELECT (subqueries therefore work: "(SELECT COUNT(*)
// FROM t)"). Variables may be referenced bare ("n > 3") or as $n;
// bare variable names shadow column names inside process expressions.
func (in *Instance) evalScalar(expr string) (types.Value, error) {
	return in.evalScalarAs(expr, 0)
}

// evalScalarAs evaluates a scalar expression in the context of an
// activity instance (binding $aid).
func (in *Instance) evalScalarAs(expr string, aid int64) (types.Value, error) {
	sqlText := "SELECT " + in.substituteVars(expr, aid)
	st, err := sqltext.Parse(sqlText)
	if err != nil {
		return types.Null, err
	}
	sel, ok := st.(*sqltext.Select)
	if !ok {
		return types.Null, fmt.Errorf("enact: %q is not a scalar expression", expr)
	}
	// Unqualified column references that name a variable or constant
	// take its current value. Subqueries are not entered: their column
	// references resolve against their own FROM relations.
	for i := range sel.Items {
		sqltext.WalkExpr(&sel.Items[i].Expr, func(p *sqltext.Expr) bool {
			if c, ok := (*p).(*sqltext.ColumnRef); ok && c.Table == "" {
				if v, ok := in.Var(c.Column); ok {
					*p = &sqltext.Literal{Value: v}
				}
			}
			return true
		})
	}
	renameTables(sel, in.resolveRelation)
	in.eng.iso.Restrict(sel, in.ID, in.Snapshot(), in.managed)
	res, err := in.eng.db.ExecStmt(sel)
	if err != nil {
		return types.Null, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return types.Null, fmt.Errorf("enact: expression %q did not yield a single value", expr)
	}
	return res.Rows[0][0], nil
}

// execCall instantiates and runs a procedure (§V activity
// (S1..Sn) ← p(e1..en, T^w)).
func (in *Instance) execCall(a *wf.Activity) error {
	fn, ok := in.Process.FunctionByName(a.Function)
	if !ok {
		return fmt.Errorf("no function %q", a.Function)
	}
	proc, err := in.eng.reg.New(fn.Class)
	if err != nil {
		return err
	}
	env := in.buildEnv(a)
	st := in.activityState(a.Name)
	in.mu.Lock()
	st.proc = proc
	st.env = env
	in.mu.Unlock()
	if err := proc.Run(env); err != nil {
		return err
	}
	// A procedure's output relations are this instance's own effects:
	// subsequent activities must see them (§V: (S1..Sn) feed the rest of
	// the process), so the snapshot advances past the call.
	in.advanceSnapshot()
	return nil
}

func (in *Instance) buildEnv(a *wf.Activity) *module.Env {
	resolve := func(names []string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = in.resolveRelation(n)
		}
		return out
	}
	in.mu.Lock()
	vars := make(map[string]types.Value, len(in.vars))
	for k, v := range in.vars {
		vars[k] = v
	}
	aid := int64(0)
	if st := in.acts[strings.ToLower(a.Name)]; st != nil {
		aid = st.ID
	}
	in.mu.Unlock()
	return &module.Env{
		DB:               in.eng.db,
		Inputs:           resolve(a.Inputs),
		Outputs:          resolve(a.Outputs),
		InOuts:           resolve(a.InOuts),
		Vars:             vars,
		ProcessInstance:  in.ID,
		ActivityInstance: aid,
		Logf:             in.eng.logf,
	}
}

// ------------------------------------------------------- delta routing

// routeDelta applies one UP action to this instance (§V's scope table):
//
//	ra     running activity instances → running handler (p_h,r)
//	ta-rp  terminated activities, running process → finished handler
//	ta-tp  terminated activities, terminated process → finished handler
//	fa-rp  future activities, running process → extend the snapshot so
//	       the activity sees the delta when it starts
func (in *Instance) routeDelta(up wf.UP, d module.Delta) {
	st := in.activityState(up.Activity)
	if st == nil {
		return
	}
	in.mu.Lock()
	actStatus := st.Status
	procStatus := in.status
	proc := st.proc
	env := st.env
	skipped := st.invalidated
	in.mu.Unlock()
	if skipped {
		return // never executed: nothing to propagate into
	}

	switch up.Scope {
	case wf.ScopeRunning:
		if actStatus != database.StatusRunning || procStatus != database.StatusRunning {
			return
		}
		in.invokeHandler(proc, env, d, module.PhaseRunning, up)
	case wf.ScopeTerminatedRunning:
		if actStatus != database.StatusCompleted || procStatus != database.StatusRunning {
			return
		}
		in.invokeHandler(proc, env, d, module.PhaseFinished, up)
	case wf.ScopeTerminatedTerminated:
		if actStatus != database.StatusCompleted || procStatus != database.StatusCompleted {
			return
		}
		in.invokeHandler(proc, env, d, module.PhaseFinished, up)
	case wf.ScopeFutureRunning:
		if actStatus != database.StatusNotStarted || procStatus != database.StatusRunning {
			return
		}
		// Extend visibility: the future activity instance must see the
		// delta (§V option 2). The instance snapshot advances to now.
		stamp := in.eng.db.Store().CurrentStamp()
		in.mu.Lock()
		if stamp > in.snapshot {
			in.snapshot = stamp
		}
		in.mu.Unlock()
		in.eng.db.Exec("UPDATE "+database.TableProcessInstance+" SET snapshot = ? WHERE id = ?",
			types.NewInt(stamp), types.NewInt(in.ID))
	}
}

// invokeHandler calls the procedure's delta handler; non-procedure
// activities are repaired by re-execution (queries/updates re-run on the
// fresh data; assignments are unaffected, §VI-B).
func (in *Instance) invokeHandler(proc module.Procedure, env *module.Env, d module.Delta, phase module.Phase, up wf.UP) {
	a, ok := in.Process.ActivityByName(up.Activity)
	if !ok {
		return
	}
	switch a.Kind {
	case wf.KindCall:
		if proc == nil || env == nil {
			return
		}
		henv := *env
		henv.Delta = &d
		henv.Phase = phase
		if err := proc.Update(&henv); err != nil {
			in.eng.logf("delta handler of %s/%s: %v", in.Process.Name, a.Name, err)
		}
	case wf.KindUpdate, wf.KindRunQuery:
		// Repair by re-execution on the fresh data: the UP action
		// explicitly opts this activity into seeing ΔR, so the snapshot
		// advances before the re-run (otherwise the rewritten SELECT
		// would filter out exactly the delta being propagated).
		in.advanceSnapshot()
		if err := in.execSQLActivity(a); err != nil {
			in.eng.logf("repair of %s/%s: %v", in.Process.Name, a.Name, err)
		}
	case wf.KindAssign:
		// §VI-B: "Variable assignments are unaffected by updates."
	}
}
