// Command edisql is an interactive SQL shell over the EdiFlow database —
// embedded in-process by default, or attached to a remote ediserver.
//
//	edisql [-db /path/to/dbdir] [-c "SELECT ..."]
//	edisql -connect host:7687 [-c "SELECT ..."]
//
// Meta commands: .tables, .views, .schema <table>, .checkpoint, .quit
// (remote mode supports .tables, .ping, .quit).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"ediflow"
)

// shell abstracts the embedded platform vs. the network client: both
// expose ExecScript, which is all the REPL loop needs.
type shell interface {
	ExecScript(sql string, args ...ediflow.Value) (*ediflow.Result, error)
}

func main() {
	dbDir := flag.String("db", "", "database directory (empty = in-memory)")
	connect := flag.String("connect", "", "host:port of a remote ediserver (overrides -db)")
	command := flag.String("c", "", "execute one statement and exit")
	flag.Parse()

	var (
		sh   shell
		p    *ediflow.Platform
		conn *ediflow.RemoteConn
	)
	if *connect != "" {
		var err error
		conn, err = ediflow.Dial(*connect)
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		sh = conn
	} else {
		var err error
		p, err = ediflow.Open(*dbDir)
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		sh = p
	}

	if *command != "" {
		if err := run(sh, *command); err != nil {
			log.Fatal(err)
		}
		return
	}

	if conn != nil {
		fmt.Printf("EdiFlow SQL shell — connected to %s, .help for meta commands\n", *connect)
	} else {
		fmt.Println("EdiFlow SQL shell — .help for meta commands")
	}
	r := bufio.NewReader(os.Stdin)
	var buf strings.Builder
	for {
		if buf.Len() == 0 {
			fmt.Print("edisql> ")
		} else {
			fmt.Print("   ...> ")
		}
		line, err := r.ReadString('\n')
		if err == io.EOF {
			fmt.Println()
			return
		}
		if err != nil {
			log.Fatal(err)
		}
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			if meta(p, conn, trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		if strings.HasSuffix(trimmed, ";") || trimmed == "" {
			stmt := strings.TrimSpace(buf.String())
			buf.Reset()
			if stmt == "" {
				continue
			}
			if err := run(sh, stmt); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}
	}
}

// meta handles dot-commands; returns true to exit. Exactly one of p
// (embedded) and conn (remote) is non-nil.
func meta(p *ediflow.Platform, conn *ediflow.RemoteConn, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		if conn != nil {
			fmt.Println(".tables  .ping  .quit")
		} else {
			fmt.Println(".tables  .views  .schema <table>  .processes  .instances  .checkpoint  .quit")
		}
		return false
	case ".tables":
		if conn != nil {
			names, err := conn.TableNames()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				return false
			}
			for _, t := range names {
				fmt.Println(t)
			}
		} else {
			for _, t := range p.DB().TableNames() {
				fmt.Println(t)
			}
		}
		return false
	case ".ping":
		if conn == nil {
			fmt.Println("embedded database — always reachable")
			return false
		}
		start := time.Now()
		if err := conn.Ping(); err != nil {
			fmt.Fprintf(os.Stderr, "ping: %v\n", err)
		} else {
			fmt.Printf("pong (%v)\n", time.Since(start).Round(time.Microsecond))
		}
		return false
	}
	if conn != nil {
		fmt.Printf("%s is not available over -connect (.help)\n", fields[0])
		return false
	}
	switch fields[0] {
	case ".processes":
		if err := run(p, "SELECT name FROM "+ediflow.TableProcess+" ORDER BY name"); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
		}
	case ".instances":
		if err := run(p, "SELECT id, process, status, start_ts, end_ts FROM "+ediflow.TableProcessInstance+" ORDER BY id"); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
		}
	case ".views":
		for _, v := range p.DB().Catalog().ViewNames() {
			fmt.Println(v)
		}
	case ".schema":
		if len(fields) < 2 {
			fmt.Println("usage: .schema <table>")
			return false
		}
		t := p.DB().Store().Table(fields[1])
		if t == nil {
			fmt.Printf("no such table %q\n", fields[1])
			return false
		}
		for _, c := range t.Schema.Columns {
			flags := ""
			if c.PrimaryKey {
				flags += " PRIMARY KEY"
			}
			if c.Unique {
				flags += " UNIQUE"
			}
			if c.NotNull && !c.PrimaryKey {
				flags += " NOT NULL"
			}
			fmt.Printf("  %s %s%s\n", c.Name, c.Type, flags)
		}
	case ".checkpoint":
		if err := p.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		} else {
			fmt.Println("checkpointed")
		}
	default:
		fmt.Printf("unknown command %s (.help)\n", fields[0])
	}
	return false
}

func run(sh shell, sql string) error {
	start := time.Now()
	res, err := sh.ExecScript(sql)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if res == nil {
		return nil
	}
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		fmt.Println(strings.Repeat("-", len(strings.Join(res.Columns, " | "))))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, " | "))
		}
		fmt.Printf("(%d rows, %v)\n", len(res.Rows), elapsed.Round(time.Microsecond))
	} else {
		fmt.Printf("ok (%d affected, %v)\n", res.Affected, elapsed.Round(time.Microsecond))
	}
	return nil
}
