package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The recorded digest names the whole measured change — tracked edits and
// new, untracked files (a new assembly file included) but not ignored build
// output — and its patch, applied to the base, rebuilds the measured tree.
func TestTreeDiffCoversUntrackedFilesAndRebuildsTheTree(t *testing.T) {
	dir := t.TempDir()
	git := func(in string, args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		cmd.Dir = in
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v: %s", args, err, out)
		}
		return string(out)
	}
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	digest := func() ([]byte, string) {
		t.Helper()
		patch, sum, err := treeDiff(context.Background(), dir, "HEAD")
		if err != nil {
			t.Fatal(err)
		}
		return patch, sum
	}
	git(dir, "init", "-q")
	write(".gitignore", "out/\n")
	write("dot.go", "package dot\n")
	git(dir, "add", "-A")
	git(dir, "commit", "-q", "-m", "base")

	_, clean := digest()
	write("dot.go", "package dot // edited\n")
	_, edited := digest()
	write("out/perf.bin", "build output")
	_, withIgnored := digest()
	write("dot_amd64.s", "TEXT ·dot(SB), 4, $0\n\tRET\n")
	patch, withAsm := digest()
	switch {
	case edited == clean:
		t.Fatal("a tracked edit did not change the digest")
	case withIgnored != edited:
		t.Fatal("an ignored file changed the digest")
	case withAsm == edited:
		t.Fatal("a new untracked file did not change the digest")
	}
	if status := git(dir, "status", "--porcelain"); status != " M dot.go\n?? dot_amd64.s\n" {
		t.Fatalf("the repository's own index changed: status %q", status)
	}

	base := t.TempDir()
	git(base, "clone", "-q", dir, ".")
	patchPath := filepath.Join(t.TempDir(), withAsm+".diff")
	if err := os.WriteFile(patchPath, patch, 0o644); err != nil {
		t.Fatal(err)
	}
	git(base, "apply", patchPath)
	for _, name := range []string{"dot.go", "dot_amd64.s"} {
		want, _ := os.ReadFile(filepath.Join(dir, name))
		if got, err := os.ReadFile(filepath.Join(base, name)); err != nil || string(got) != string(want) {
			t.Fatalf("%s after git apply = %q (%v), want %q", name, got, err, want)
		}
	}
	if _, err := os.Stat(filepath.Join(base, "out")); !os.IsNotExist(err) {
		t.Fatalf("ignored output came along with the patch: %v", err)
	}
}

// A log holds pairs of one base and one diff; a run of another base or
// another working tree must not be pooled into it.
func TestSameMeasurement(t *testing.T) {
	for _, c := range []struct {
		r    pairRecord
		same bool
	}{
		{pairRecord{Side: "base", Rev: "HEAD"}, true},
		{pairRecord{Side: "base", Rev: "abc123"}, false},
		{pairRecord{Side: "change", Rev: "worktree", Diff: "d1"}, true},
		{pairRecord{Side: "change", Rev: "worktree", Diff: "d2"}, false},
		{pairRecord{Side: "change", Rev: "worktree"}, false}, // logged before diffs were recorded
	} {
		if err := sameMeasurement(c.r, "HEAD", "d1"); (err == nil) != c.same {
			t.Errorf("sameMeasurement(%+v) = %v, want same=%v", c.r, err, c.same)
		}
	}
}
