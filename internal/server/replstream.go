package server

import (
	"errors"
	"fmt"
	"time"

	"ediflow/internal/storage"
	"ediflow/internal/wire"
)

// replBatchBytes bounds the record payload of one WALBatch frame.
const replBatchBytes = 4 << 20

// streamWAL converts the session into a one-way replication stream: the
// subscriber's cursor decides snapshot-then-deltas or deltas directly,
// and the session goroutine then ships batches until the connection
// breaks or the server shuts down. The only frames a subscriber sends
// after this point are ReplAcks, consumed by a side goroutine.
func (ss *session) streamWAL(payload []byte) error {
	src := ss.srv.repl
	if src == nil {
		return ss.sendErr(fmt.Errorf("server: replication not enabled"))
	}
	streamID, cursor, err := wire.DecodeSubscribeWAL(payload)
	if err != nil {
		return ss.sendErr(err)
	}
	// The stream outlives the request/response loop: park the session
	// (so Close's stop() unblocks us by closing the socket) and clear
	// the idle read deadline — a caught-up subscriber is silent.
	if !ss.park() {
		return errors.New("server: shutting down")
	}
	ss.conn.SetReadDeadline(time.Time{})

	tr := src.Track(ss.conn.RemoteAddr().String())
	defer tr.Close()

	// Ack reader: drains ReplAck frames for lag accounting and signals
	// disconnect. Closing the conn (below, or via stop()) ends it.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			typ, p, err := wire.ReadFrame(ss.r, ss.srv.cfg.MaxFrameBytes)
			if err != nil {
				return
			}
			ss.countIn(p)
			if typ != wire.FrameReplAck {
				return // protocol violation: drop the stream
			}
			if seq, err := wire.DecodeReplAck(p); err == nil {
				tr.Acked(seq)
			}
			wire.Release(p)
		}
	}()
	defer ss.conn.Close() // unblocks the ack reader before we return

	needSnap := streamID != src.StreamID()
	for {
		if needSnap {
			cursor, err = ss.sendSnapshot(src, tr)
			if err != nil {
				return err
			}
			needSnap = false
		}
		// Take the watch channel BEFORE fetching: a capture that lands
		// between the empty fetch and the wait closes this channel, so
		// the wakeup cannot be lost.
		watch := src.Watch()
		recs, next, head, err := src.Fetch(cursor, replBatchBytes)
		if errors.Is(err, storage.ErrReplGap) {
			// A checkpoint pruned past the cursor mid-stream: resync.
			needSnap = true
			continue
		}
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			select {
			case <-watch:
			case <-readerDone:
				return nil // subscriber went away (or stop() closed us)
			}
			continue
		}
		b := &wire.WALBatch{StreamID: src.StreamID(), FirstSeq: cursor + 1, HeadSeq: head, Records: recs}
		if err := ss.reply(wire.FrameWALBatch, wire.EncodeWALBatch(b)); err != nil {
			return err
		}
		cursor = next
		tr.Sent(next)
	}
}

// sendSnapshot ships a full state snapshot in SnapshotChunkSize frames
// and returns the cursor the snapshot corresponds to.
func (ss *session) sendSnapshot(src ReplSource, tr ReplTracker) (uint64, error) {
	data, seq, err := src.Snapshot()
	if err != nil {
		return 0, err
	}
	tr.Resynced()
	total := uint64(len(data))
	first := true
	for {
		n := len(data)
		if n > wire.SnapshotChunkSize {
			n = wire.SnapshotChunkSize
		}
		chunk := &wire.SnapshotChunk{First: first, Last: n == len(data), Data: data[:n]}
		if first {
			chunk.StreamID = src.StreamID()
			chunk.SnapSeq = seq
			chunk.Total = total
		}
		if err := ss.reply(wire.FrameSnapshot, wire.EncodeSnapshotChunk(chunk)); err != nil {
			return 0, err
		}
		data = data[n:]
		first = false
		if len(data) == 0 {
			break
		}
	}
	tr.Sent(seq)
	return seq, nil
}

// park transitions the session out of busy without ending it, so stop()
// may close the socket of a long-lived stream. Returns false when a
// stop already arrived.
func (ss *session) park() bool {
	ss.stateMu.Lock()
	defer ss.stateMu.Unlock()
	ss.busy = false
	return !ss.stopping
}
