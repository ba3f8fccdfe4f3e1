// Replica-mode stores: the local segment directory a replication
// follower persists through, so a cold restart resumes from its own
// durable seq instead of re-snapshotting from the leader. The follower
// applies each replicated command to its serving market first, then
// appends the record here; the serving market is what the store
// checkpoints, exactly as on a leader (there is no journal Writer on a
// follower — the replication stream is the writer).
package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ReplicaStore is a follower's local segmented store. Append and Reset
// are called from the follower's single apply loop; the read-side
// accessors are safe to call concurrently with it.
type ReplicaStore struct {
	st *Store

	mu   sync.Mutex
	buf  []byte // the frame being appended, reused
	next int64  // seq the next appended record must carry
}

// OpenReplicaStore opens (or creates) a follower's local store and
// recovers whatever state it holds: the newest checkpoint plus the
// segment tail, exactly like leader recovery. It returns the restored
// serving market (nil when the store is empty — the follower's first
// catch-up will Reset it) and the seq of the newest durable record. A
// follower has no journal Writer — of opts only WithTelemetry matters,
// and it registers the two recovery gauges and nothing else.
func OpenReplicaStore(dir string, sc StoreConfig, opts ...Option) (*ReplicaStore, *Replayer, int64, error) {
	s, st, err := openStore(dir, sc, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	rs := &ReplicaStore{st: s}
	if st.m == nil {
		// Empty (or unrecoverable-fresh) store: no active segment yet;
		// Reset creates the chain once the first snapshot arrives.
		return rs, nil, 0, nil
	}
	rs.next = st.lastSeq + 1
	return rs, &Replayer{Market: st.m, rp: replay{st: st.state}}, st.lastSeq, nil
}

// Reset wipes the store and reseeds it from a leader snapshot —
// canonical, the market.Snapshot.Canonical bytes the leader sent, and
// r, the market the follower restored from them, serves and the store
// checkpoints: every segment and checkpoint is deleted, those bytes
// land synchronously as the checkpoint at seq, and a fresh segment 0
// opens at seq+1.
func (rs *ReplicaStore) Reset(canonical []byte, seq int64, r *Replayer) error {
	s := rs.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.active != nil {
		s.active.Close()
		s.active = nil
	}
	l, err := listStoreDir(s.dir)
	if err != nil {
		return err
	}
	for _, idx := range l.segIdx {
		os.Remove(filepath.Join(s.dir, segName(idx)))
	}
	for _, cs := range l.ckptSeqs {
		os.Remove(filepath.Join(s.dir, ckptName(cs)))
	}
	for _, tmp := range l.tmps {
		os.Remove(filepath.Join(s.dir, tmp))
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	err = writeCheckpointFile(s.dir, seq, func(w io.Writer) error {
		_, err := w.Write(canonical)
		return err
	})
	if err != nil {
		return fmt.Errorf("journal: replica reset checkpoint: %w", err)
	}
	f, headLen, err := createSegment(s.dir, 0, seq+1, false)
	if err != nil {
		return err
	}
	s.segs = []segMeta{{index: 0, base: seq + 1, bytes: headLen}}
	s.active = f
	s.ckpts = []int64{seq}
	s.lastCkpt = seq
	s.live = r.Market
	s.appliedSeq = seq
	s.sinceCkpt = 0
	s.err = nil
	rs.mu.Lock()
	rs.next = seq + 1
	rs.mu.Unlock()
	return nil
}

// Append persists one replicated record after the follower applied it
// to the serving market. payload is the command's command.EncodeBinary
// bytes exactly as the leader's commit stage produced them and the
// replication stream carried them: they are framed, not re-encoded, so
// the follower's segments hold the leader's payloads byte for byte.
// Rotation and checkpointing work exactly as on the leader; the
// periodic checkpoint snapshots the serving market at the just-applied
// seq. Append failures are sticky — the follower keeps serving from
// memory, but the store stops accepting records and reports the fault
// through Err.
func (rs *ReplicaStore) Append(seq int64, payload []byte) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.next == 0 {
		return fmt.Errorf("journal: replica store has no chain yet (missing Reset)")
	}
	if seq != rs.next {
		return fmt.Errorf("%w: replica append seq %d, want %d", ErrSeqGap, seq, rs.next)
	}
	rs.buf = append(beginFrame(rs.buf[:0], seq, nil, kindCommand), payload...)
	endFrame(rs.buf, 0)
	if _, err := rs.st.Write(rs.buf); err != nil {
		return err // sticky: Write recorded it
	}
	rs.next++
	// The apply loop is this market's one applier and is between two
	// commands here, so the market stands exactly at seq.
	live := rs.st.live.Stage()
	live.Lock()
	rs.st.committed(seq, 1)
	live.Unlock()
	return nil
}

// Err surfaces the store's sticky failure; see Store.Err.
func (rs *ReplicaStore) Err() error { return rs.st.Err() }

// Store exposes the underlying store for inventory reporting.
func (rs *ReplicaStore) Store() *Store { return rs.st }

// Close seals the store.
func (rs *ReplicaStore) Close() error { return rs.st.Close() }
