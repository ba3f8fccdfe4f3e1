package main

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
)

// journalInfo prints a segmented journal directory's inventory: one
// line per segment (base seq, record count, bytes, sealed/active,
// whether the newest checkpoint covers it) and one per checkpoint,
// plus the recovery summary an operator actually wants — where replay
// would start and how many records it would touch.
func journalInfo(dir string, out io.Writer) error {
	inv, err := journal.InspectDir(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "journal %s\n", inv.Dir)
	fmt.Fprintf(out, "  seqs %d..%d, newest checkpoint %d, %d bytes on disk\n",
		inv.FirstSeq, inv.LastSeq, inv.LastCheckpoint, inv.TotalBytes)
	fmt.Fprintf(out, "  segments (%d):\n", len(inv.Segments))
	for _, s := range inv.Segments {
		state := "active"
		if s.Sealed {
			state = "sealed"
		}
		covered := ""
		if s.Covered {
			covered = ", covered"
		}
		fmt.Fprintf(out, "    %s  base %d, %d records, %d bytes (%s%s)\n",
			s.Name, s.Base, s.Records, s.Bytes, state, covered)
	}
	fmt.Fprintf(out, "  checkpoints (%d):\n", len(inv.Checkpoints))
	for _, c := range inv.Checkpoints {
		fmt.Fprintf(out, "    %s  seq %d, %d bytes\n", c.Name, c.Seq, c.Bytes)
	}
	tail := inv.LastSeq - inv.LastCheckpoint
	if tail < 0 {
		tail = 0
	}
	fmt.Fprintf(out, "  recovery: restore checkpoint %d, replay %d tail records\n",
		inv.LastCheckpoint, tail)
	return nil
}

// journalDump prints every record of every segment in dir as its JSON
// Event view, one per line under a line naming the segment — what `cat`
// showed when records were JSON lines — then every checkpoint's snapshot
// as one JSON line. It stops at the first damaged record or checkpoint
// with the error that names it.
func journalDump(dir string, out io.Writer) error {
	enc := json.NewEncoder(out)
	current := ""
	err := journal.ScanDir(dir, func(segment string, e journal.Event) error {
		if segment != current {
			current = segment
			fmt.Fprintf(out, "# %s\n", segment)
		}
		return enc.Encode(e)
	})
	if err != nil {
		return err
	}
	return journal.ScanCheckpoints(dir, func(c journal.CheckpointInfo, snap market.Snapshot) error {
		fmt.Fprintf(out, "# %s (%d bytes)\n", c.Name, c.Bytes)
		return enc.Encode(snap)
	})
}

// journalVerify checksum-scans the whole directory (journal.VerifyDir)
// and reports either a clean bill or the first damage found.
func journalVerify(dir string, out io.Writer) error {
	if err := journal.VerifyDir(dir); err != nil {
		return err
	}
	fmt.Fprintf(out, "journal %s: ok — every segment and checkpoint verified, and the chain recovers\n", dir)
	return nil
}
