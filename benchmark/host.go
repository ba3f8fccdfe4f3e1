package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Host describes where a run happened. Every output carries it: the
// latencies this benchmark prints are the sandbox's, not a device's,
// and a number without its host cannot be compared with anything.
type Host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	// JournalFS is the filesystem type under the journal directories
	// ("tmpfs", "ext4", ...), from statfs on the work directory.
	JournalFS string `json:"journal_fs"`
	// Fsync is the journal fsync mode of the four workloads; see
	// workloadFsync.
	Fsync string `json:"fsync"`
}

func hostStamp(workDir string) Host {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return Host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernel,
		GoVersion:  runtime.Version(),
		JournalFS:  fsType(workDir),
		Fsync:      workloadFsync,
	}
}

// refKernel is a fixed CPU-bound piece of work — SHA-256 over 24 MiB
// plus 400k map updates — timed before and after the measured phase.
// It answers "did the host move during this run" and is printed as a
// diagnostic; it is never used to normalise another number (dividing
// by it did not reduce run-to-run spread, see README).
func refKernel() time.Duration {
	start := time.Now()
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	h := sha256.New()
	for i := 0; i < 24; i++ {
		h.Write(buf)
	}
	sum := h.Sum(nil)
	m := make(map[uint32]uint32, 1<<12)
	x := uint32(sum[0]) | 1
	for i := 0; i < 400_000; i++ {
		x = x*1664525 + 1013904223
		m[x&0xfff] += x
	}
	refSink = m[0]
	return time.Since(start)
}

var refSink uint32

// rssPeakMiB reads the process's peak resident set (VmHWM) in MiB; 0
// where /proc does not provide it.
func rssPeakMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
