// Package enact executes EdiFlow processes (§VI): it records process and
// activity instances in the database, walks the structured body
// (sequence, AND/OR split-join, conditionals), runs activities (variable
// assignment, declarative updates, queries, procedure calls, user
// interaction), applies per-instance isolation (§VI-A) and routes
// reactive update propagation to delta handlers (§V, §VI-B).
package enact

import (
	"fmt"
	"log"
	"strings"
	"sync"

	"ediflow/internal/database"
	"ediflow/internal/module"
	"ediflow/internal/types"
	"ediflow/internal/wf"
	"ediflow/internal/wf/isolation"
	"ediflow/internal/wf/react"
)

// StatusFailed extends the paper's status set for error reporting.
const StatusFailed = "failed"

// UserAgent answers askUser activities: the human in the loop. The
// returned string is bound to the activity's bindTo variable.
type UserAgent interface {
	Ask(prompt, group string, processInstance, activityInstance int64) (string, error)
}

// AgentFunc adapts a function to UserAgent.
type AgentFunc func(prompt, group string) (string, error)

// Ask implements UserAgent.
func (f AgentFunc) Ask(prompt, group string, _, _ int64) (string, error) { return f(prompt, group) }

// Engine deploys and runs processes.
type Engine struct {
	db     *database.DB
	reg    *module.Registry
	iso    *isolation.Manager
	router *react.Router
	agent  UserAgent
	logf   func(format string, args ...any)

	mu        sync.Mutex
	deployed  map[string]*wf.Process
	instances map[int64]*Instance
}

// Option configures the engine.
type Option func(*Engine)

// WithAgent sets the user agent for askUser activities.
func WithAgent(a UserAgent) Option { return func(e *Engine) { e.agent = a } }

// WithLogf sets the progress logger.
func WithLogf(f func(format string, args ...any)) Option {
	return func(e *Engine) { e.logf = f }
}

// NewEngine builds an enactment engine over a database and a procedure
// registry.
func NewEngine(db *database.DB, reg *module.Registry, opts ...Option) *Engine {
	e := &Engine{
		db:        db,
		reg:       reg,
		iso:       isolation.New(db),
		router:    react.NewRouter(db),
		agent:     AgentFunc(func(prompt, group string) (string, error) { return "", nil }),
		logf:      func(format string, args ...any) { log.Printf("[ediflow] "+format, args...) },
		deployed:  map[string]*wf.Process{},
		instances: map[int64]*Instance{},
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// DB exposes the engine's database.
func (e *Engine) DB() *database.DB { return e.db }

// Quiesce blocks until every reactive delta queued by update propagation
// has been delivered to its delta handler.
func (e *Engine) Quiesce() { e.router.Quiesce() }

// Close drains and stops the reactive delivery workers. Deployed process
// definitions stay in the database.
func (e *Engine) Close() { e.router.Close() }

// Isolation exposes the isolation manager (examples and tests use it to
// inspect deletion tables).
func (e *Engine) Isolation() *isolation.Manager { return e.iso }

// Deploy validates and installs a process: records its definition in the
// Process/Activity tables, creates its persistent relations, ensures
// deletion tables, and compiles UP actions into triggers (§VI-B).
func (e *Engine) Deploy(p *wf.Process) error {
	if err := p.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	if _, dup := e.deployed[strings.ToLower(p.Name)]; dup {
		e.mu.Unlock()
		return fmt.Errorf("enact: process %q already deployed", p.Name)
	}
	e.mu.Unlock()

	// Persistent relations.
	for _, rel := range p.Relations {
		if rel.Temporary {
			continue
		}
		if err := e.createRelation(rel.Name, &rel); err != nil {
			return err
		}
		if err := e.iso.EnsureDeletionTable(rel.Name); err != nil {
			return err
		}
	}

	// Record the definition (enactment "consists of adding the necessary
	// tuples to the Process and Activity relations", §VI).
	n, err := e.db.QueryInt("SELECT COUNT(*) FROM "+database.TableProcess+" WHERE name = ?", types.NewString(p.Name))
	if err != nil {
		return err
	}
	if n == 0 {
		// Persist a canonical XML spec even for programmatically built
		// processes; DeployXML later overwrites it with the source text.
		spec, err := wf.MarshalXML(p)
		if err != nil {
			spec = ""
		}
		if _, err := e.db.Exec("INSERT INTO "+database.TableProcess+" (name, spec) VALUES (?, ?)",
			types.NewString(p.Name), types.NewString(spec)); err != nil {
			return err
		}
		for _, a := range p.AllActivities() {
			if _, err := e.db.Exec(
				"INSERT INTO "+database.TableActivity+" (id, process, name, grp) VALUES (?, ?, ?, ?)",
				types.NewString(p.Name+"/"+a.Name), types.NewString(p.Name),
				types.NewString(a.Name), types.NewString(a.Group)); err != nil {
				return err
			}
			if a.Group != "" {
				if err := e.db.EnsureGroup(a.Group); err != nil {
					return err
				}
			}
		}
	}

	// Compile UP actions into triggers. Activity "*" is the paper's macro
	// (§V option 3): propagate ΔR to every activity yet to start in a
	// running process — expanded here into one UP per activity, exactly
	// the "syntax which will then be compiled into UPs" the paper sketches.
	for _, up := range p.UPs {
		if up.Activity == "*" {
			for _, a := range p.AllActivities() {
				expanded := up
				expanded.Activity = a.Name
				if err := e.router.Register(p.Name, expanded, e); err != nil {
					return err
				}
			}
			continue
		}
		if err := e.router.Register(p.Name, up, e); err != nil {
			return err
		}
	}

	e.mu.Lock()
	e.deployed[strings.ToLower(p.Name)] = p
	e.mu.Unlock()
	return nil
}

// DeployXML parses and deploys a process from its XML definition, storing
// the XML text in the Process table.
func (e *Engine) DeployXML(xmlText string) (*wf.Process, error) {
	p, err := wf.ParseXMLString(xmlText)
	if err != nil {
		return nil, err
	}
	if err := e.Deploy(p); err != nil {
		return nil, err
	}
	_, err = e.db.Exec("UPDATE "+database.TableProcess+" SET spec = ? WHERE name = ?",
		types.NewString(xmlText), types.NewString(p.Name))
	return p, err
}

func (e *Engine) createRelation(physName string, rel *wf.Relation) error {
	if e.db.Store().Table(physName) != nil {
		return nil
	}
	var cols []string
	for _, at := range rel.Attributes {
		col := at.Name + " " + at.Type.String()
		if strings.EqualFold(at.Name, rel.PrimaryKey) {
			col += " PRIMARY KEY"
		}
		cols = append(cols, col)
	}
	_, err := e.db.Exec(fmt.Sprintf("CREATE TABLE %s (%s)", physName, strings.Join(cols, ", ")))
	return err
}

// Process returns a deployed process by name.
func (e *Engine) Process(name string) (*wf.Process, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.deployed[strings.ToLower(name)]
	return p, ok
}

// Instances returns the live instance handles.
func (e *Engine) Instances() []*Instance {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Instance, 0, len(e.instances))
	for _, in := range e.instances {
		out = append(out, in)
	}
	return out
}

// Start creates a process instance for the named process on behalf of a
// user and runs it asynchronously. The returned handle exposes Wait().
func (e *Engine) Start(processName, user string) (*Instance, error) {
	p, ok := e.Process(processName)
	if !ok {
		return nil, fmt.Errorf("enact: process %q is not deployed", processName)
	}
	pid, err := e.db.NextID(database.TableProcessInstance)
	if err != nil {
		return nil, err
	}
	snapshot := e.db.Store().CurrentStamp()
	if _, err := e.db.Exec(
		"INSERT INTO "+database.TableProcessInstance+" (id, process, status, start_ts, end_ts, snapshot) VALUES (?, ?, ?, ?, NULL, ?)",
		types.NewInt(pid), types.NewString(p.Name), types.NewString(database.StatusRunning),
		types.NewInt(snapshot), types.NewInt(snapshot)); err != nil {
		return nil, err
	}
	inst := &Instance{
		ID:       pid,
		Process:  p,
		eng:      e,
		user:     user,
		vars:     map[string]types.Value{},
		snapshot: snapshot,
		status:   database.StatusRunning,
		done:     make(chan struct{}),
		acts:     map[string]*ActivityState{},
		managed:  map[string]bool{},
		temp:     map[string]string{},
	}
	// Constants and declared variables (zero values).
	for _, c := range p.Constants {
		inst.vars[strings.ToLower(c.Name)] = types.NewString(c.Value)
	}
	for _, v := range p.Variables {
		inst.vars[strings.ToLower(v.Name)] = types.Null
		_ = v
	}
	for _, rel := range p.Relations {
		if !rel.Temporary {
			inst.managed[strings.ToLower(rel.Name)] = true
		}
	}
	// Pre-create activity states so UP routing can classify not-started
	// activities.
	for _, a := range p.AllActivities() {
		aid, err := e.db.NextID(database.TableActivityInstance)
		if err != nil {
			return nil, err
		}
		if _, err := e.db.Exec(
			"INSERT INTO "+database.TableActivityInstance+" (id, activity, process_instance, status, start_ts, end_ts, username) VALUES (?, ?, ?, ?, NULL, NULL, ?)",
			types.NewInt(aid), types.NewString(a.Name), types.NewInt(pid),
			types.NewString(database.StatusNotStarted), types.NewString("")); err != nil {
			return nil, err
		}
		inst.acts[strings.ToLower(a.Name)] = &ActivityState{ID: aid, Activity: a, Status: database.StatusNotStarted}
	}

	e.mu.Lock()
	e.instances[pid] = inst
	e.mu.Unlock()

	go inst.run()
	return inst, nil
}

// RouteDelta implements react.Target: per-scope delta routing (§V).
func (e *Engine) RouteDelta(process string, up wf.UP, d module.Delta) {
	e.mu.Lock()
	instances := make([]*Instance, 0, len(e.instances))
	for _, in := range e.instances {
		if strings.EqualFold(in.Process.Name, process) {
			instances = append(instances, in)
		}
	}
	e.mu.Unlock()
	for _, in := range instances {
		in.routeDelta(up, d)
	}
}
