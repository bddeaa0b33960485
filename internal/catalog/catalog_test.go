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

func TestAddTableValidation(t *testing.T) {
	c := New()
	if err := c.AddTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	// Case-insensitive duplicate.
	if err := c.AddTable(&TableSchema{Name: "USERS", Columns: []Column{{Name: "a", Type: types.KindInt}}}); err == nil {
		t.Error("duplicate table")
	}
	if err := c.AddTable(&TableSchema{Name: "empty"}); err == nil {
		t.Error("no columns")
	}
	if err := c.AddTable(&TableSchema{Name: "dup", Columns: []Column{
		{Name: "x", Type: types.KindInt}, {Name: "X", Type: types.KindInt},
	}}); err == nil {
		t.Error("duplicate column")
	}
	if err := c.AddTable(&TableSchema{Name: "pk2", Columns: []Column{
		{Name: "a", Type: types.KindInt, PrimaryKey: true},
		{Name: "b", Type: types.KindInt, PrimaryKey: true},
	}}); err == nil {
		t.Error("two primary keys")
	}
	if err := c.AddTable(&TableSchema{Name: "sys", Columns: []Column{{Name: "_tid", Type: types.KindInt}}}); err == nil {
		t.Error("reserved column name")
	}
	got, ok := c.Table("users")
	if !ok || got.Name != "Users" {
		t.Error("case-insensitive lookup")
	}
}

// The index half of this test moved to storage (TestStoreIndexRules):
// index definitions live with the table's storage, not in the catalog.
func TestIndexesAndTriggers(t *testing.T) {
	c := New()
	c.AddTable(userSchema())
	if err := c.AddTrigger(&Trigger{Name: "t1", Event: "INSERT", Table: "users", Handler: "h"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTrigger(&Trigger{Name: "t1", Event: "DELETE", Table: "users", Handler: "h"}); err == nil {
		t.Error("duplicate trigger")
	}
	if err := c.AddTrigger(&Trigger{Name: "t2", Event: "INSERT", Table: "ghost", Handler: "h"}); err == nil {
		t.Error("unknown table trigger")
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
	// Dropping a table drops its triggers.
	if err := c.DropTable("users"); err != nil {
		t.Fatal(err)
	}
	if len(c.AllTriggers()) != 0 {
		t.Error("trigger survived drop")
	}
	if err := c.DropTable("users"); err == nil {
		t.Error("double drop")
	}
}

func TestViews(t *testing.T) {
	c := New()
	c.AddTable(userSchema())
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
	if err := c.AddView(&View{Name: "users"}); err == nil {
		t.Error("view shadowing table")
	}
	if err := c.AddTable(&TableSchema{Name: "v1", Columns: []Column{{Name: "a", Type: types.KindInt}}}); err == nil {
		t.Error("table shadowing view")
	}
	if _, ok := c.View("V1"); !ok {
		t.Error("view lookup")
	}
	if names := c.ViewNames(); len(names) != 1 || names[0] != "v1" {
		t.Errorf("%v", names)
	}
	if err := c.DropView("v1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView("v1"); err == nil {
		t.Error("double drop view")
	}
}

func TestTableNamesSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		c.AddTable(&TableSchema{Name: n, Columns: []Column{{Name: "a", Type: types.KindInt}}})
	}
	names := c.TableNames()
	if names[0] != "alpha" || names[2] != "zeta" {
		t.Errorf("%v", names)
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
