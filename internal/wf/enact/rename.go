package enact

import (
	"ediflow/internal/sqltext"
)

// renameTables rewrites every base-table reference in a statement through
// resolve (mapping declared temporary-relation names to their per-instance
// physical tables). Column qualifiers keep the original name because the
// relation's alias defaults to the written name; renamed FROM entries
// therefore get an alias preserving the declared name.
func renameTables(st sqltext.Statement, resolve func(string) string) {
	rename := func(tr *sqltext.TableRef) {
		if phys := resolve(tr.Table); phys != tr.Table { // a subquery's Table is ""
			if tr.Alias == "" {
				tr.Alias = tr.Table // keep declared name for column quals
			}
			tr.Table = phys
		}
	}
	sqltext.Queries(st, func(sel *sqltext.Select) {
		if sel.From != nil {
			rename(sel.From)
		}
		for i := range sel.Joins {
			rename(&sel.Joins[i].Right)
		}
	})
	switch s := st.(type) {
	case *sqltext.Insert:
		s.Table = resolve(s.Table)
	case *sqltext.Update:
		s.Table = resolve(s.Table)
	case *sqltext.Delete:
		s.Table = resolve(s.Table)
	}
}
