package catalog

import (
	"testing"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

func userSchema() *TableSchema {
	return &TableSchema{
		Name: "Users",
		Columns: []Column{
			{Name: "id", Type: types.KindInt, PrimaryKey: true},
			{Name: "Name", Type: types.KindString, NotNull: true},
			{Name: "email", Type: types.KindString, Unique: true},
		},
	}
}

func TestSchemaLookups(t *testing.T) {
	s := userSchema()
	if s.ColIndex("name") != 1 || s.ColIndex("NAME") != 1 {
		t.Error("ColIndex must be case-insensitive")
	}
	if s.ColIndex("missing") != -1 {
		t.Error("missing column")
	}
	if s.PKIndex() != 0 {
		t.Error("PKIndex")
	}
	names := s.ColNames()
	if len(names) != 3 || names[2] != "email" {
		t.Errorf("%v", names)
	}
	c := s.Clone()
	c.Columns[0].Name = "changed"
	if s.Columns[0].Name != "id" {
		t.Error("Clone must be deep")
	}
}

// TestSchemaValidate: the schema rules a new table must meet. Which
// names are taken, by a table or a view, is the engine's to check
// (engine TestDDLNameRules).
func TestSchemaValidate(t *testing.T) {
	if err := userSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s    *TableSchema
		want string
	}{
		{&TableSchema{Name: "empty"}, `catalog: table "empty" has no columns`},
		{&TableSchema{Name: "dup", Columns: []Column{
			{Name: "x", Type: types.KindInt}, {Name: "X", Type: types.KindInt},
		}}, `catalog: duplicate column "X" in "dup"`},
		{&TableSchema{Name: "pk2", Columns: []Column{
			{Name: "a", Type: types.KindInt, PrimaryKey: true},
			{Name: "b", Type: types.KindInt, PrimaryKey: true},
		}}, `catalog: table "pk2" has 2 primary keys`},
		{&TableSchema{Name: "sys", Columns: []Column{{Name: "_tid", Type: types.KindInt}}}, `catalog: column name "_tid" is reserved`},
		{&TableSchema{Name: "sys", Columns: []Column{{Name: "_Created", Type: types.KindInt}}}, `catalog: column name "_Created" is reserved`},
	} {
		if err := c.s.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.s.Name, err, c.want)
		}
	}
}

// The index half of this test moved to storage (TestStoreIndexRules):
// index definitions live with the table's storage, not in the catalog.
// A trigger's table is the engine's to check (engine TestDDLNameRules).
func TestIndexesAndTriggers(t *testing.T) {
	c := New()
	if err := c.AddTrigger(&Trigger{Name: "t1", Event: "INSERT", Table: "users", Handler: "h"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTrigger(&Trigger{Name: "T1", Event: "DELETE", Table: "users", Handler: "h"}); err == nil {
		t.Error("duplicate trigger")
	}
	if got, ok := c.Trigger("T1"); !ok || got.Event != "INSERT" {
		t.Errorf("Trigger: %v %v", got, ok)
	}
	if got := c.Triggers("users", "insert"); len(got) != 1 {
		t.Errorf("Triggers: %v", got)
	}
	if got := c.Triggers("users", "UPDATE"); len(got) != 0 {
		t.Errorf("no update triggers expected: %v", got)
	}
	if len(c.AllTriggers()) != 1 {
		t.Error("AllTriggers")
	}
	c.DropTrigger("T1")
	c.DropTrigger("t1") // gone already: no error
	if len(c.AllTriggers()) != 0 {
		t.Error("trigger survived DropTrigger")
	}
}

func TestViews(t *testing.T) {
	c := New()
	sel, err := sqltext.Parse("SELECT id FROM users")
	if err != nil {
		t.Fatal(err)
	}
	v := &View{Name: "v1", Query: sel.(*sqltext.Select), Backing: "__view_v1"}
	if err := c.AddView(v); err != nil {
		t.Fatal(err)
	}
	if err := c.AddView(v); err == nil {
		t.Error("duplicate view")
	}
	if _, ok := c.View("V1"); !ok {
		t.Error("view lookup")
	}
	if names := c.ViewNames(); len(names) != 1 || names[0] != "v1" {
		t.Errorf("%v", names)
	}
	c.DropView("V1")
	c.DropView("v1") // gone already: no error
	if _, ok := c.View("v1"); ok {
		t.Error("view survived DropView")
	}
}

// TestReplace: a catalog takes another's contents whole.
func TestReplace(t *testing.T) {
	c, from := New(), New()
	c.AddView(&View{Name: "old"})
	c.AddTrigger(&Trigger{Name: "old", Table: "t"})
	from.AddView(&View{Name: "new"})
	c.Replace(from)
	if names := c.ViewNames(); len(names) != 1 || names[0] != "new" {
		t.Errorf("views %v", names)
	}
	if len(c.AllTriggers()) != 0 {
		t.Errorf("triggers %v", c.AllTriggers())
	}
}

func TestSchemaFromAST(t *testing.T) {
	st, err := sqltext.Parse("CREATE TABLE t (a INT PRIMARY KEY, b STRING NOT NULL, c FLOAT UNIQUE)")
	if err != nil {
		t.Fatal(err)
	}
	s := SchemaFromAST(st.(*sqltext.CreateTable))
	if s.Name != "t" || len(s.Columns) != 3 {
		t.Fatalf("%+v", s)
	}
	if !s.Columns[0].PrimaryKey || !s.Columns[1].NotNull || !s.Columns[2].Unique {
		t.Fatalf("%+v", s.Columns)
	}
}
