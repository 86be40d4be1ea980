package mocca_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mocca"
	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/workload"
)

// The roster is process-wide and append-only, so what a test enrols stays
// for every later test of the binary: the tests below compare runs made in
// child processes of the test binary, each with a roster of its own. The
// variable names what the child does.
const rosterChildEnv = "MOCCA_TEST_ROSTER_CHILD"

// rosterChild runs the child side of a roster test, if this process is one,
// and reports whether it was.
func rosterChild(run func(arg string)) bool {
	v := os.Getenv(rosterChildEnv)
	if v == "" {
		return false
	}
	_, arg, _ := strings.Cut(v, ":")
	run(arg)
	return true
}

// runChild runs test in a child process of the test binary with arg, and
// returns what the child printed on the lines it marked with "=".
func runChild(t *testing.T, test, arg string) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), rosterChildEnv+"="+test+":"+arg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child %s %q: %v\n%s", test, arg, err, out)
	}
	var marked []string
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, "="); ok {
			marked = append(marked, v)
		}
	}
	return marked
}

// enrolAhead puts names on the roster before a run's own sites, so every
// site of the run takes another index than it would in a fresh process:
// the run's own names in reverse order after names no run uses.
func enrolAhead(names ...string) {
	for i := range 5 {
		vclock.Enrol(fmt.Sprintf("elsewhere-%d", i))
	}
	for _, n := range slices.Backward(names) {
		vclock.Enrol(n)
	}
}

// TestFingerprintIgnoresRoster: which index the roster gives each site is
// the process's business. An org run on either topology reports the same
// fingerprint — the same counts, visibility and bytes — in a process that
// enrolled nothing first and in one that enrolled other names, and the
// run's own in reverse, before the run began.
func TestFingerprintIgnoresRoster(t *testing.T) {
	if rosterChild(func(arg string) {
		if arg == "ahead" {
			enrolAhead("s000", "s001", "s002", "s003")
		}
		for _, topology := range []string{"mesh", "gossip"} {
			rep, err := workload.Run(workload.Spec{Seed: 1992, Sites: 4, Users: 60, Topology: topology,
				Duration: 30 * time.Second, Chaos: &workload.ChaosSpec{Crashes: 1, Partitions: 1}})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf("=%s %s %v\n", topology, rep.Fingerprint(), rep.Converged)
		}
	}) {
		return
	}
	fresh := runChild(t, "TestFingerprintIgnoresRoster", "fresh")
	ahead := runChild(t, "TestFingerprintIgnoresRoster", "ahead")
	if len(fresh) != 2 || !slices.Equal(fresh, ahead) {
		t.Fatalf("a fresh roster ran %q, a roster with other names first %q", fresh, ahead)
	}
}

// rosterSites are the sites of TestDurableStoreIgnoresRoster's deployment.
var rosterSites = []string{"gmd", "upc", "nott"}

// writeRosterStores runs a three-site durable deployment under dir that
// writes at every site and replicates, and crashes every site; it returns
// every site's rows, rendered.
func writeRosterStores(t *testing.T, dir string) []string {
	dep := mocca.NewDeployment(mocca.WithSeed(7), mocca.WithDurableStore(dir))
	var sites []*mocca.Site
	for _, name := range rosterSites {
		sites = append(sites, dep.AddSite(name, name+".org"))
	}
	for i, s := range sites {
		for j := range 3 {
			if _, err := s.Space().Put("ada", "mocca-interchange", map[string]string{"title": fmt.Sprintf("%d.%d", i, j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dep.Run()
	dep.Advance(time.Minute)
	rows := siteRows(sites)
	for _, s := range sites {
		s.Crash()
	}
	return rows
}

// siteRows renders each site's rows, vectors included, in id order.
func siteRows(sites []*mocca.Site) []string {
	var out []string
	for _, s := range sites {
		var rows []string
		s.Space().Range(func(o *information.Object) bool {
			rows = append(rows, fmt.Sprintf("%s %s %s %s %v", s.Name, o.ID, o.Site, o.VV, o.Fields))
			return true
		})
		slices.Sort(rows)
		out = append(out, rows...)
	}
	return out
}

// storeFiles reads every file under dir, by path relative to it.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDurableStoreIgnoresRoster: the roster never reaches disk. A durable
// deployment written in this process reopens, in a child process that
// enrolled its sites in another order, to the same rows; and the child's
// own run of the same deployment writes files byte-identical to this
// one's, though every site has another roster index there.
func TestDurableStoreIgnoresRoster(t *testing.T) {
	if rosterChild(func(parent string) {
		enrolAhead(rosterSites...)
		for _, name := range rosterSites {
			fmt.Printf("=index %s %x\n", name, vclock.AppendSite(nil, name))
		}
		dep := mocca.NewDeployment(mocca.WithSeed(7), mocca.WithDurableStore(parent))
		var sites []*mocca.Site
		for _, name := range rosterSites {
			sites = append(sites, dep.AddSite(name, name+".org"))
		}
		for _, row := range siteRows(sites) {
			fmt.Printf("=reopened %s\n", row)
		}
		own := filepath.Join(filepath.Dir(parent), "child")
		for _, row := range writeRosterStores(t, own) {
			fmt.Printf("=written %s\n", row)
		}
	}) {
		return
	}
	root := t.TempDir()
	dir := filepath.Join(root, "parent")
	rows := writeRosterStores(t, dir)
	if len(rows) != 3*9 {
		t.Fatalf("the deployment did not replicate: %d rows", len(rows))
	}
	written := storeFiles(t, dir)
	out := runChild(t, "TestDurableStoreIgnoresRoster", dir)
	var reopened, rewritten []string
	moved := false
	for _, line := range out {
		kind, rest, _ := strings.Cut(line, " ")
		switch kind {
		case "index":
			name, index, _ := strings.Cut(rest, " ")
			moved = moved || index != fmt.Sprintf("%x", vclock.AppendSite(nil, name))
		case "reopened":
			reopened = append(reopened, rest)
		case "written":
			rewritten = append(rewritten, rest)
		}
	}
	if !moved {
		t.Fatalf("the child's roster gave every site the index this process gives it: %q", out)
	}
	if !slices.Equal(reopened, rows) || !slices.Equal(rewritten, rows) {
		t.Fatalf("rows written here:\n%s\nreopened in the child:\n%s\nwritten in the child:\n%s",
			strings.Join(rows, "\n"), strings.Join(reopened, "\n"), strings.Join(rewritten, "\n"))
	}
	child := storeFiles(t, filepath.Join(root, "child"))
	if len(child) == 0 || len(child) != len(written) {
		t.Fatalf("the child wrote %d files, this process %d", len(child), len(written))
	}
	for path, b := range written {
		if !bytes.Equal(child[path], b) {
			t.Errorf("%s differs between a process and one with another roster", path)
		}
	}
}
