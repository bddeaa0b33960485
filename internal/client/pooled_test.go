package client

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ediflow/internal/types"
)

// TestPooledFramesConcurrentRoundTrips: request frames and response
// payloads come from one buffer pool shared by every connection, and a
// response's buffer goes back to it only once the caller has decoded it.
// Eight goroutines share one Conn with two idle slots and interleave
// large results (frames over 64 KB), point queries, writes, failing
// statements and NextID, each checking its own exact answer: a buffer
// handed back before its decode is reused by another goroutine's frame,
// and that decode reads the wrong rows.
func TestPooledFramesConcurrentRoundTrips(t *testing.T) {
	srv, _ := start(t)
	conn, err := Dial(srv.Addr(), Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const (
		goroutines = 8
		rounds     = 8
		rows       = 2000
		table      = rows + goroutines*10
	)
	pad := func(id int64) string { // 64 bytes, its own for each id
		return fmt.Sprintf("%c%063d", 'a'+id%26, id)
	}
	for _, ddl := range []string{
		"CREATE TABLE big (id INT PRIMARY KEY, s STRING)",
		"CREATE TABLE log (g INT, i INT)",
	} {
		if _, err := conn.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	for lo := int64(0); lo < table; lo += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO big VALUES ")
		for id := lo; id < min(lo+500, table); id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", id, pad(id))
		}
		if _, err := conn.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu  sync.Mutex
		ids = map[int64]bool{}
		wg  sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				t.Errorf("goroutine %d: "+format, append([]any{g}, args...)...)
			}
			wantErr := fmt.Sprintf("engine: unknown column nope_%d", g)
			for i := int64(0); i < rounds; i++ {
				lo := g * 10
				res, err := conn.Query("SELECT id, s FROM big WHERE id >= ? ORDER BY id LIMIT ?", types.NewInt(lo), types.NewInt(rows))
				if err != nil {
					fail("large query: %v", err)
					return
				}
				if len(res.Rows) != rows {
					fail("large query: %d rows, want %d", len(res.Rows), rows)
					return
				}
				for k, r := range res.Rows {
					if id := lo + int64(k); r[0].Int() != id || r[1].Str() != pad(id) {
						fail("large query row %d: %v, want [%d %s]", k, r, id, pad(id))
						return
					}
				}
				point := g*100 + i
				v, err := conn.QueryValue("SELECT s FROM big WHERE id = ?", types.NewInt(point))
				if err != nil || v.Str() != pad(point) {
					fail("point query %d: %v %v", point, v, err)
					return
				}
				ex, err := conn.Exec("INSERT INTO log VALUES (?, ?)", types.NewInt(g), types.NewInt(i))
				if err != nil || ex.Affected != 1 || len(ex.TIDs) != 1 {
					fail("insert: %+v %v", ex, err)
					return
				}
				if _, err := conn.Query(fmt.Sprintf("SELECT nope_%d FROM big", g)); err == nil || err.Error() != wantErr {
					fail("failing statement: %v, want %s", err, wantErr)
					return
				}
				id, err := conn.NextID("big")
				if err != nil {
					fail("NextID: %v", err)
					return
				}
				mu.Lock()
				dup := ids[id]
				ids[id] = true
				mu.Unlock()
				if dup {
					fail("NextID %d handed out twice", id)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		n, err := conn.QueryInt("SELECT COUNT(*) FROM log WHERE g = ?", types.NewInt(int64(g)))
		if err != nil || n != rounds {
			t.Errorf("goroutine %d logged %d rows, %v; want %d", g, n, err, rounds)
		}
	}
}
