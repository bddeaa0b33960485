package vis

import (
	"strings"
	"sync"

	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/types"
)

// SelectionLinker implements the Figure 3 selection semantics: "whether
// the data instance is currently selected by a given visualisation
// component … typically triggers the recomputation of the other
// components to reflect the selection". It observes VisualAttributes
// changes and mirrors an object's selected flag across every sibling
// component of the same visualization.
type SelectionLinker struct {
	db *database.DB

	mu       sync.Mutex
	siblings map[int64][]int64 // component id → other components of its visualization
	applying bool              // re-entrancy guard: our own writes re-trigger the observer
}

// NewSelectionLinker wires the linker to the database. Call Link for each
// visualization whose components should share selection.
func NewSelectionLinker(db *database.DB) *SelectionLinker {
	l := &SelectionLinker{db: db, siblings: map[int64][]int64{}}
	db.ObserveBatch(l.onBatch)
	return l
}

// Link registers a visualization: all its current components become
// selection siblings.
func (l *SelectionLinker) Link(v *Visualization) error {
	comps, err := v.Components()
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range comps {
		var others []int64
		for _, o := range comps {
			if o.ID != c.ID {
				others = append(others, o.ID)
			}
		}
		l.siblings[c.ID] = others
	}
	return nil
}

// onBatch watches a batch's UPDATEs to the VisualAttributes table and
// mirrors selection changes to sibling components.
func (l *SelectionLinker) onBatch(evs []engine.ChangeEvent) {
	l.mu.Lock()
	if l.applying || len(l.siblings) == 0 {
		l.mu.Unlock()
		return
	}
	// Collect selection transitions: rows whose selected flag changed.
	// Schema: obj_id, comp_id, x, y, width, height, color, label, selected.
	type change struct {
		obj, comp int64
		selected  bool
	}
	var changes []change
	for _, ev := range evs {
		if !strings.EqualFold(ev.Table, database.TableVisualAttributes) || ev.Op != engine.OpUpdate {
			continue
		}
		for i := range min(len(ev.Rows), len(ev.OldRows)) {
			newSel := ev.Rows[i][8]
			oldSel := ev.OldRows[i][8]
			if newSel.IsNull() || types.Equal(newSel, oldSel) {
				continue
			}
			comp := ev.Rows[i][1].Int()
			if _, linked := l.siblings[comp]; !linked {
				continue
			}
			changes = append(changes, change{
				obj: ev.Rows[i][0].Int(), comp: comp, selected: newSel.Bool(),
			})
		}
	}
	if len(changes) == 0 {
		l.mu.Unlock()
		return
	}
	l.applying = true
	siblings := l.siblings
	l.mu.Unlock()

	for _, ch := range changes {
		for _, sib := range siblings[ch.comp] {
			l.db.Exec("UPDATE "+database.TableVisualAttributes+
				" SET selected = ? WHERE obj_id = ? AND comp_id = ?",
				types.NewBool(ch.selected), types.NewInt(ch.obj), types.NewInt(sib))
		}
	}

	l.mu.Lock()
	l.applying = false
	l.mu.Unlock()
}
