// Package notify implements the paper's §VI-C synchronization protocol
// between disk-resident tables (R_D) and remote in-memory images (R_M):
//
//  1. the client creates a memory object and a listening socket;
//  2. it registers a quadruplet (user, table, ip, port) in the
//     ConnectedUser table;
//  3. the DBMS connects back to ip:port and expects a HELLO message;
//  4. the client sends HELLO, the DBMS answers REPLY;
//  5. every statement that changes a table appends a compact tuple
//     (seq_no, ts, table, op, tids) to the Notification table as part of
//     its own commit — one fsync covers both — and once that commit is
//     durable the DBMS pushes a NOTIFY message with the table name to
//     every client watching it;
//  6. the client decides when to refresh, then queries the changed rows
//     starting from its last seq_no;
//  7. on teardown the client sends DISCONNECT; the DBMS closes the socket
//     and removes the ConnectedUser entry;
//  8. Notification rows below every client's last_seq can be purged.
//
// Messages are single text lines, kept "very compact" as the paper
// requires for interactive refresh rates.
package notify

import (
	"fmt"
	"strconv"
	"strings"
)

// Protocol message verbs.
const (
	MsgHello      = "HELLO"
	MsgReply      = "REPLY"
	MsgNotify     = "NOTIFY"
	MsgDisconnect = "DISCONNECT"

	ProtocolVersion = "EDIFLOW/1"
)

// Message is one parsed protocol line.
type Message struct {
	Verb  string
	Table string // NOTIFY only
	Seq   int64  // NOTIFY only
	Op    string // NOTIFY only: INSERT/UPDATE/DELETE
}

// Format renders m as a wire line (without the trailing newline).
func (m Message) Format() string {
	switch m.Verb {
	case MsgHello, MsgReply:
		return m.Verb + " " + ProtocolVersion
	case MsgNotify:
		return fmt.Sprintf("%s %s %d %s", MsgNotify, m.Table, m.Seq, m.Op)
	case MsgDisconnect:
		return MsgDisconnect
	}
	return m.Verb
}

// ParseMessage parses one wire line. This is the "message parsing" step
// measured in Figure 8.
func ParseMessage(line string) (Message, error) {
	line = strings.TrimRight(line, "\r\n")
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Message{}, fmt.Errorf("notify: empty message")
	}
	switch fields[0] {
	case MsgHello, MsgReply:
		if len(fields) != 2 || fields[1] != ProtocolVersion {
			return Message{}, fmt.Errorf("notify: bad %s message %q", fields[0], line)
		}
		return Message{Verb: fields[0]}, nil
	case MsgNotify:
		if len(fields) != 4 {
			return Message{}, fmt.Errorf("notify: bad NOTIFY message %q", line)
		}
		seq, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return Message{}, fmt.Errorf("notify: bad NOTIFY seq in %q", line)
		}
		switch fields[3] {
		case "INSERT", "UPDATE", "DELETE":
		default:
			return Message{}, fmt.Errorf("notify: bad NOTIFY op in %q", line)
		}
		return Message{Verb: MsgNotify, Table: fields[1], Seq: seq, Op: fields[3]}, nil
	case MsgDisconnect:
		return Message{Verb: MsgDisconnect}, nil
	}
	return Message{}, fmt.Errorf("notify: unknown verb %q", fields[0])
}

// EncodeTIDs renders a tid list as the compact CSV stored in the
// Notification table.
func EncodeTIDs(tids []int64) string {
	if len(tids) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, t := range tids {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(t, 10))
	}
	return sb.String()
}

// DecodeTIDs parses the CSV produced by EncodeTIDs.
func DecodeTIDs(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("notify: bad tid %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
