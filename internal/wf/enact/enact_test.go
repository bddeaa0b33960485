package enact

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/module"
	"ediflow/internal/types"
)

func newEngine(t *testing.T, opts ...Option) (*Engine, *database.DB, *module.Registry) {
	t.Helper()
	db := database.MustOpenMemory()
	t.Cleanup(func() { db.Close() })
	reg := module.NewRegistry()
	quiet := WithLogf(func(string, ...any) {})
	e := NewEngine(db, reg, append([]Option{quiet}, opts...)...)
	return e, db, reg
}

const basicXML = `
<process name="basic">
  <variable name="n" type="int"/>
  <relation name="items" primaryKey="id">
    <attribute name="id" type="int"/>
    <attribute name="v" type="int"/>
  </relation>
  <body>
    <sequence>
      <activity name="seed"><update>
        INSERT INTO items (id, v) VALUES (1, 10), (2, 20), (3, 30)
      </update></activity>
      <activity name="count"><assign variable="n" value="(SELECT COUNT(*) FROM items)"/></activity>
      <if condition="n &gt;= 3">
        <activity name="bump"><update>UPDATE items SET v = v + 1</update></activity>
      </if>
    </sequence>
  </body>
</process>`

func TestBasicProcessEndToEnd(t *testing.T) {
	e, db, _ := newEngine(t)
	if _, err := e.DeployXML(basicXML); err != nil {
		t.Fatal(err)
	}
	inst, err := e.Start("basic", "ana")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	if inst.Status() != database.StatusCompleted {
		t.Fatalf("status: %s", inst.Status())
	}
	// Data effects.
	sum, err := db.QueryInt("SELECT SUM(v) FROM items")
	if err != nil || sum != 63 { // 11+21+31
		t.Fatalf("sum: %d, %v", sum, err)
	}
	// Variable bound.
	n, ok := inst.Var("n")
	if !ok || n.Int() != 3 {
		t.Fatalf("n = %v", n)
	}
	// Process/activity bookkeeping in the database (Figure 3 model).
	st, _ := db.QueryString("SELECT status FROM " + database.TableProcessInstance + " WHERE id = 1")
	if st != database.StatusCompleted {
		t.Fatalf("process instance status: %s", st)
	}
	cnt, _ := db.QueryInt("SELECT COUNT(*) FROM " + database.TableActivityInstance + " WHERE status = 'completed'")
	if cnt != 3 {
		t.Fatalf("completed activity instances: %d", cnt)
	}
}

func TestDeployRecordsDefinition(t *testing.T) {
	e, db, _ := newEngine(t)
	p, err := e.DeployXML(basicXML)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := db.QueryString("SELECT spec FROM "+database.TableProcess+" WHERE name = ?", types.NewString(p.Name))
	if spec == "" {
		t.Fatal("XML spec not stored")
	}
	n, _ := db.QueryInt("SELECT COUNT(*) FROM " + database.TableActivity + " WHERE process = 'basic'")
	if n != 3 {
		t.Fatalf("activity definitions: %d", n)
	}
	if err := e.Deploy(p); err == nil {
		t.Fatal("double deploy must fail")
	}
}

func TestAndSplitRunsBothBranches(t *testing.T) {
	e, db, reg := newEngine(t)
	var mu sync.Mutex
	ran := map[string]bool{}
	reg.Register("track", func() module.Procedure {
		return &module.Func{ProcName: "track", RunFn: func(env *module.Env) error {
			mu.Lock()
			ran[env.Inputs[0]] = true
			mu.Unlock()
			return nil
		}}
	})
	db.Exec("CREATE TABLE l (a INT)")
	db.Exec("CREATE TABLE r (a INT)")
	_, err := e.DeployXML(`
<process name="par">
  <relation name="l"><attribute name="a" type="int"/></relation>
  <relation name="r"><attribute name="a" type="int"/></relation>
  <function name="track" class="track"/>
  <body>
    <andSplit>
      <branch><activity name="left"><callFunction name="track" inputs="l"/></activity></branch>
      <branch><activity name="right"><callFunction name="track" inputs="r"/></activity></branch>
    </andSplit>
  </body>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("par", "u")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran["l"] || !ran["r"] {
		t.Fatalf("branches ran: %v", ran)
	}
}

func TestOrSplitGuardedChoice(t *testing.T) {
	e, _, _ := newEngine(t)
	_, err := e.DeployXML(`
<process name="choice">
  <variable name="n" type="int"/>
  <variable name="path" type="string"/>
  <body>
    <sequence>
      <activity name="init"><assign variable="n" value="5"/></activity>
      <orSplit>
        <branch condition="n &gt; 100">
          <activity name="big"><assign variable="path" value="'big'"/></activity>
        </branch>
        <branch condition="n &gt; 1">
          <activity name="mid"><assign variable="path" value="'mid'"/></activity>
        </branch>
        <branch>
          <activity name="small"><assign variable="path" value="'small'"/></activity>
        </branch>
      </orSplit>
    </sequence>
  </body>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("choice", "u")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	path, _ := inst.Var("path")
	if path.Str() != "mid" {
		t.Fatalf("path: %v", path)
	}
	// Untriggered branches are invalidated, not failed.
	if st, _ := inst.ActivityStatus("big"); st != database.StatusCompleted {
		t.Fatalf("big: %s", st)
	}
}

func TestAskUserBindsAnswer(t *testing.T) {
	agent := AgentFunc(func(prompt, group string) (string, error) {
		if group != "analysts" {
			return "", fmt.Errorf("wrong group %q", group)
		}
		return "approved", nil
	})
	e, _, _ := newEngine(t, WithAgent(agent))
	_, err := e.DeployXML(`
<process name="ask">
  <variable name="answer" type="string"/>
  <body>
    <activity name="confirm" group="analysts">
      <askUser prompt="Proceed?" bindTo="answer"/>
    </activity>
  </body>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("ask", "ana")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	ans, _ := inst.Var("answer")
	if ans.Str() != "approved" {
		t.Fatalf("answer: %v", ans)
	}
}

func TestProcedureFailureFailsProcess(t *testing.T) {
	e, db, reg := newEngine(t)
	reg.Register("boom", func() module.Procedure {
		return &module.Func{ProcName: "boom", RunFn: func(env *module.Env) error {
			return fmt.Errorf("deliberate failure")
		}}
	})
	db.Exec("CREATE TABLE x (a INT)")
	_, err := e.DeployXML(`
<process name="failing">
  <relation name="x"><attribute name="a" type="int"/></relation>
  <function name="boom" class="boom"/>
  <body>
    <activity name="go"><callFunction name="boom" inputs="x"/></activity>
  </body>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("failing", "u")
	if err := inst.Wait(); err == nil {
		t.Fatal("expected failure")
	}
	if inst.Status() != StatusFailed {
		t.Fatalf("status: %s", inst.Status())
	}
	st, _ := db.QueryString("SELECT status FROM " + database.TableProcessInstance + " WHERE id = 1")
	if st != StatusFailed {
		t.Fatalf("db status: %s", st)
	}
}

func TestVariableSubstitutionInSQL(t *testing.T) {
	e, db, _ := newEngine(t)
	_, err := e.DeployXML(`
<process name="subst">
  <constant name="label" value="hello"/>
  <variable name="k" type="int"/>
  <relation name="t"><attribute name="a" type="int"/><attribute name="s" type="string"/></relation>
  <body>
    <sequence>
      <activity name="setk"><assign variable="k" value="41 + 1"/></activity>
      <activity name="ins"><update>INSERT INTO t (a, s) VALUES ($k, $label)</update></activity>
      <activity name="ins2"><update>INSERT INTO t (a, s) VALUES ($pid, $user)</update></activity>
    </sequence>
  </body>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("subst", "ana")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	a, _ := db.QueryInt("SELECT a FROM t WHERE s = 'hello'")
	if a != 42 {
		t.Fatalf("a: %d", a)
	}
	u, _ := db.QueryString("SELECT s FROM t WHERE a = ?", types.NewInt(inst.ID))
	if u != "ana" {
		t.Fatalf("user: %q", u)
	}
}

func TestTemporaryRelations(t *testing.T) {
	e, db, _ := newEngine(t)
	_, err := e.DeployXML(`
<process name="tmp">
  <variable name="n" type="int"/>
  <relation name="scratch" temporary="true">
    <attribute name="k" type="int"/>
  </relation>
  <body>
    <sequence>
      <activity name="fill"><update>INSERT INTO scratch (k) VALUES (1), (2)</update></activity>
      <activity name="cnt"><assign variable="n" value="(SELECT COUNT(*) FROM scratch)"/></activity>
    </sequence>
  </body>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("tmp", "u")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	n, _ := inst.Var("n")
	if n.Int() != 2 {
		t.Fatalf("n: %v", n)
	}
	// The temporary table is dropped at instance end.
	if _, err := db.Query(fmt.Sprintf("SELECT * FROM tmp_%d_scratch", inst.ID)); err == nil {
		t.Fatal("temporary relation survived the instance")
	}
	// And two concurrent instances do not share scratch space: start two
	// and observe distinct physical names via no PK conflicts.
	i1, _ := e.Start("tmp", "u")
	i2, _ := e.Start("tmp", "u")
	if err := i1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := i2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// A temporary relation is renamed wherever a query names it, here in a
// subquery inside JOIN … ON, in an update and in an assignment.
func TestTemporaryRelationInJoinOn(t *testing.T) {
	e, _, _ := newEngine(t)
	_, err := e.DeployXML(`
<process name="tmpon">
  <variable name="n" type="int"/>
  <relation name="items" primaryKey="id">
    <attribute name="id" type="int"/>
  </relation>
  <relation name="picked" primaryKey="id">
    <attribute name="id" type="int"/>
  </relation>
  <relation name="scratch" temporary="true">
    <attribute name="k" type="int"/>
  </relation>
  <body>
    <sequence>
      <activity name="fill"><update>INSERT INTO items (id) VALUES (1), (2), (3); INSERT INTO scratch (k) VALUES (2), (3)</update></activity>
      <activity name="pick"><update>INSERT INTO picked SELECT i.id FROM items AS i JOIN items AS j ON i.id = j.id AND i.id IN (SELECT k FROM scratch)</update></activity>
      <activity name="cnt"><assign variable="n" value="(SELECT COUNT(*) FROM picked JOIN items ON picked.id = items.id AND items.id IN (SELECT k FROM scratch WHERE k > 2))"/></activity>
    </sequence>
  </body>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("tmpon", "u")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	if n, _ := inst.Var("n"); n.Int() != 1 {
		t.Fatalf("n: %v, want 1", n)
	}
}

// ---------------------------------------------------------- reactivity

// reactiveProc counts Run and Update invocations.
type reactiveProc struct {
	mu      sync.Mutex
	runs    int
	updates []module.Phase
	deltas  []module.Delta
	block   chan struct{} // Run blocks until closed (nil = no blocking)
}

func (p *reactiveProc) Initialize() error { return nil }
func (p *reactiveProc) Name() string      { return "reactive" }
func (p *reactiveProc) Run(env *module.Env) error {
	p.mu.Lock()
	p.runs++
	block := p.block
	p.mu.Unlock()
	if block != nil {
		<-block
	}
	return nil
}
func (p *reactiveProc) Update(env *module.Env) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.updates = append(p.updates, env.Phase)
	if env.Delta != nil {
		p.deltas = append(p.deltas, *env.Delta)
	}
	return nil
}

const reactiveXML = `
<process name="reactive">
  <relation name="src" primaryKey="id">
    <attribute name="id" type="int"/>
    <attribute name="v" type="int"/>
  </relation>
  <function name="vis" class="reactive"/>
  <body>
    <sequence>
      <activity name="compute"><callFunction name="vis" inputs="src"/></activity>
      <activity name="after"><runQuery>SELECT COUNT(*) FROM src</runQuery></activity>
    </sequence>
  </body>
  <updatePropagation relation="src" activity="compute" scope="%s"/>
</process>`

func TestUPScopeRunning(t *testing.T) {
	e, db, reg := newEngine(t)
	proc := &reactiveProc{block: make(chan struct{})}
	reg.Register("reactive", func() module.Procedure { return proc })
	if _, err := e.DeployXML(fmt.Sprintf(reactiveXML, "ra")); err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("reactive", "u")

	// Wait until the procedure is running (blocked).
	waitFor(t, func() bool {
		st, _ := inst.ActivityStatus("compute")
		return st == database.StatusRunning
	})
	// Insert while the activity runs: the running handler must fire.
	db.Exec("INSERT INTO src (id, v) VALUES (1, 10)")
	waitFor(t, func() bool {
		proc.mu.Lock()
		defer proc.mu.Unlock()
		return len(proc.updates) == 1 && proc.updates[0] == module.PhaseRunning
	})
	proc.mu.Lock()
	if len(proc.deltas) != 1 || proc.deltas[0].Table != "src" || len(proc.deltas[0].Rows) != 1 {
		t.Fatalf("delta: %+v", proc.deltas)
	}
	proc.mu.Unlock()

	// After the activity finishes, ra no longer fires.
	close(proc.block)
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	db.Exec("INSERT INTO src (id, v) VALUES (2, 20)")
	time.Sleep(50 * time.Millisecond)
	proc.mu.Lock()
	defer proc.mu.Unlock()
	if len(proc.updates) != 1 {
		t.Fatalf("updates after completion: %d", len(proc.updates))
	}
}

func TestUPScopeTerminatedRunningProcess(t *testing.T) {
	e, db, reg := newEngine(t)
	proc := &reactiveProc{}
	reg.Register("reactive", func() module.Procedure { return proc })
	// Hold the process open after `compute` using a blocking ask agent.
	release := make(chan struct{})
	e.agent = AgentFunc(func(prompt, group string) (string, error) {
		<-release
		return "", nil
	})
	xml := `
<process name="reactive">
  <relation name="src" primaryKey="id">
    <attribute name="id" type="int"/>
    <attribute name="v" type="int"/>
  </relation>
  <function name="vis" class="reactive"/>
  <variable name="a" type="string"/>
  <body>
    <sequence>
      <activity name="compute"><callFunction name="vis" inputs="src"/></activity>
      <activity name="hold"><askUser prompt="wait" bindTo="a"/></activity>
    </sequence>
  </body>
  <updatePropagation relation="src" activity="compute" scope="ta-rp"/>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("reactive", "u")
	waitFor(t, func() bool {
		st, _ := inst.ActivityStatus("compute")
		return st == database.StatusCompleted
	})
	// compute terminated, process still running → finished-handler fires.
	db.Exec("INSERT INTO src (id, v) VALUES (1, 1)")
	waitFor(t, func() bool {
		proc.mu.Lock()
		defer proc.mu.Unlock()
		return len(proc.updates) == 1 && proc.updates[0] == module.PhaseFinished
	})
	close(release)
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	// Process terminated: ta-rp no longer fires.
	db.Exec("INSERT INTO src (id, v) VALUES (2, 2)")
	time.Sleep(50 * time.Millisecond)
	proc.mu.Lock()
	defer proc.mu.Unlock()
	if len(proc.updates) != 1 {
		t.Fatalf("updates: %d", len(proc.updates))
	}
}

func TestUPScopeTerminatedTerminated(t *testing.T) {
	e, db, reg := newEngine(t)
	proc := &reactiveProc{}
	reg.Register("reactive", func() module.Procedure { return proc })
	if _, err := e.DeployXML(fmt.Sprintf(reactiveXML, "ta-tp")); err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("reactive", "u")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	// Both activity and process terminated → handler fires on new data
	// ("apply the automated processing activities to the new pages
	// received ... even after the respective activities have finished").
	db.Exec("INSERT INTO src (id, v) VALUES (1, 1)")
	waitFor(t, func() bool {
		proc.mu.Lock()
		defer proc.mu.Unlock()
		return len(proc.updates) == 1 && proc.updates[0] == module.PhaseFinished
	})
}

func TestUPScopeFutureExtendsSnapshot(t *testing.T) {
	e, db, reg := newEngine(t)
	reg.Register("reactive", func() module.Procedure {
		return &module.Func{ProcName: "reactive", RunFn: func(env *module.Env) error { return nil }}
	})
	release := make(chan struct{})
	e.agent = AgentFunc(func(prompt, group string) (string, error) {
		<-release
		return "", nil
	})
	xml := `
<process name="future">
  <relation name="src" primaryKey="id">
    <attribute name="id" type="int"/>
    <attribute name="v" type="int"/>
  </relation>
  <variable name="a" type="string"/>
  <variable name="n" type="int"/>
  <body>
    <sequence>
      <activity name="hold"><askUser prompt="wait" bindTo="a"/></activity>
      <activity name="after"><assign variable="n" value="(SELECT COUNT(*) FROM src)"/></activity>
    </sequence>
  </body>
  <updatePropagation relation="src" activity="after" scope="fa-rp"/>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	db.Exec("INSERT INTO src (id, v) VALUES (1, 1)") // before start
	inst, _ := e.Start("future", "u")
	snap0 := inst.Snapshot()
	// Insert while the process runs but before `after` starts: fa-rp must
	// extend the snapshot so `after` sees it.
	db.Exec("INSERT INTO src (id, v) VALUES (2, 2)")
	waitFor(t, func() bool { return inst.Snapshot() > snap0 })
	close(release)
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	n, _ := inst.Var("n")
	if n.Int() != 2 {
		t.Fatalf("future activity saw %v rows, want 2", n)
	}
}

func TestDefaultIsolationIgnoresLateInserts(t *testing.T) {
	e, db, reg := newEngine(t)
	reg.Register("reactive", func() module.Procedure {
		return &module.Func{ProcName: "reactive", RunFn: func(env *module.Env) error { return nil }}
	})
	release := make(chan struct{})
	e.agent = AgentFunc(func(prompt, group string) (string, error) {
		<-release
		return "", nil
	})
	// Same shape as the fa-rp test but WITHOUT the UP action: the default
	// behavior ignores ΔR for instances started before the change (§V
	// option 1).
	xml := `
<process name="isolated">
  <relation name="src" primaryKey="id">
    <attribute name="id" type="int"/>
    <attribute name="v" type="int"/>
  </relation>
  <variable name="a" type="string"/>
  <variable name="n" type="int"/>
  <body>
    <sequence>
      <activity name="hold"><askUser prompt="wait" bindTo="a"/></activity>
      <activity name="after"><assign variable="n" value="(SELECT COUNT(*) FROM src)"/></activity>
    </sequence>
  </body>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	db.Exec("INSERT INTO src (id, v) VALUES (1, 1)")
	inst, _ := e.Start("isolated", "u")
	db.Exec("INSERT INTO src (id, v) VALUES (2, 2)") // after start: invisible
	close(release)
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	n, _ := inst.Var("n")
	if n.Int() != 1 {
		t.Fatalf("instance saw %v rows, want 1 (snapshot isolation)", n)
	}
	// The data is still there for new instances.
	total, _ := db.QueryInt("SELECT COUNT(*) FROM src")
	if total != 2 {
		t.Fatalf("table rows: %d", total)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
