package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/loadrig"
	"github.com/datamarket/shield/internal/node"
)

// start starts the node marketd would start with command line args.
func start(t *testing.T, args ...string) (*node.Node, error) {
	t.Helper()
	cfg, err := parseFlags(flag.NewFlagSet("marketd", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Start(cfg)
	if err == nil {
		t.Cleanup(func() {
			if err := n.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	return n, err
}

// TestStartRefusals: the flag combinations marketd refuses to start
// with, each refused by name.
func TestStartRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want error
	}{
		{[]string{"-wire-addr", "127.0.0.1:0", "-auth"}, node.ErrWireAuth},
		{[]string{"-follow", "wire://127.0.0.1:1", "-wire-addr", "127.0.0.1:0"}, node.ErrFollowerServes},
		{[]string{"-follow", "wire://127.0.0.1:1", "-auth"}, node.ErrFollowerServes},
		{[]string{"-follow", "127.0.0.1:1"}, node.ErrFollowTarget},
		{[]string{"-follow", "wire://"}, node.ErrFollowTarget},
		{[]string{"-trace-sample", "-1"}, node.ErrTraceSample},
	} {
		if _, err := start(t, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...); !errors.Is(err, tc.want) {
			t.Errorf("marketd %s: %v; want %v", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}

// TestLeaderFamiliesMatchTheRig: a journaled marketd with a wire
// listener and the load rig's leader expose the same metric families,
// so what metricslint and the SLO smokes gate is what an operator runs.
func TestLeaderFamiliesMatchTheRig(t *testing.T) {
	rig := startRig(t)
	n, err := start(t, "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0", "-journal-dir", filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	sameFamilies(t, "http://"+n.HTTPAddr, rig.HTTPAddr)
}

// TestFollowerFamiliesMatchTheRig: so do a marketd -follow replica and a
// rig follower, both following the rig's leader.
func TestFollowerFamiliesMatchTheRig(t *testing.T) {
	rig := startRig(t)
	n, err := start(t, "-addr", "127.0.0.1:0", "-follow", "wire://"+rig.WireAddr)
	if err != nil {
		t.Fatal(err)
	}
	sameFamilies(t, "http://"+n.HTTPAddr, rig.FollowerAddrs[0])
}

// TestDebugListenerServesProfiles: -debug-addr serves the pprof index and
// a named profile, which marketd links, and the node's metrics and traces.
func TestDebugListenerServesProfiles(t *testing.T) {
	n, err := start(t, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1", "/metrics", "/debug/traces"} {
		resp, err := http.Get("http://" + n.DebugAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("debug listener GET %s: %s", path, resp.Status)
		}
	}
}

func startRig(t *testing.T) *loadrig.Rig {
	t.Helper()
	rig, err := loadrig.StartRig(loadrig.RigConfig{Datasets: 2, Buyers: 2, Followers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rig.Close() })
	return rig
}

// sameFamilies fails unless daemon's and rig's /metrics carry the same
// "# TYPE" lines.
func sameFamilies(t *testing.T, daemon, rig string) {
	t.Helper()
	d, r := families(t, daemon), families(t, rig)
	for _, f := range d {
		if !slices.Contains(r, f) {
			t.Errorf("marketd serves %q, the rig does not", f)
		}
	}
	for _, f := range r {
		if !slices.Contains(d, f) {
			t.Errorf("the rig serves %q, marketd does not", f)
		}
	}
}

func families(t *testing.T, addr string) []string {
	t.Helper()
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s/metrics has no families", addr)
	}
	return out
}

const fixtures = "../../internal/journal/testdata"

// copyFixture copies a file or the files of a directory under fixtures
// into a scratch directory and returns the copy's path.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src, dst := filepath.Join(fixtures, name), filepath.Join(t.TempDir(), name)
	files := []string{""}
	if ents, err := os.ReadDir(src); err == nil {
		if err := os.Mkdir(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		files = files[:0]
		for _, ent := range ents {
			files = append(files, ent.Name())
		}
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestJournalDirNamingAFileIsExplained: -journal-dir on a journal file an
// older release kept refuses to start with the one command to run first,
// and leaves the file as it was.
func TestJournalDirNamingAFileIsExplained(t *testing.T) {
	refusedUntouched(t, "pr1.log", journal.ErrNotStoreDir)
}

// TestJournalDirRefusesAnOlderStore: so does -journal-dir on a store a
// version-2 build wrote.
func TestJournalDirRefusesAnOlderStore(t *testing.T) {
	refusedUntouched(t, "v2store", journal.ErrVersion)
}

func refusedUntouched(t *testing.T, name string, sentinel error) {
	t.Helper()
	path := copyFixture(t, name)
	_, err := start(t, "-addr", "127.0.0.1:0", "-journal-dir", path)
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "`marketctl journal-migrate "+path+"`") {
		t.Fatalf("-journal-dir %s: %v; want %v naming marketctl journal-migrate %s", name, err, sentinel, path)
	}
	if err := filepath.Walk(path, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		got, err := os.ReadFile(p)
		if err == nil && !bytes.Equal(got, mustRead(t, filepath.Join(fixtures, name, strings.TrimPrefix(p, path)))) {
			err = errors.New("changed")
		}
		return err
	}); err != nil {
		t.Fatalf("-journal-dir %s: the refusal touched the input: %v", name, err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
