package leakcheck

import (
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestChildProcsDetectsLiveChild(t *testing.T) {
	if !procfsAvailable() {
		t.Skip("no /proc on this platform")
	}
	cmd := exec.Command("sleep", "60")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot start helper child: %v", err)
	}
	pid := cmd.Process.Pid

	found := false
	for _, p := range childProcs(os.Getpid(), "sleep") {
		if p == pid {
			found = true
		}
	}
	if !found {
		t.Fatalf("childProcs did not find live child %d", pid)
	}

	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	for _, p := range childProcs(os.Getpid(), "sleep") {
		if p == pid {
			t.Fatalf("childProcs still lists reaped child %d", pid)
		}
	}
}

// The guard itself must pass on a test that cleans up its children.
func TestNoChildProcsCleanTest(t *testing.T) {
	NoChildProcs(t, "sleep")
	cmd := exec.Command("sleep", "60")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot start helper child: %v", err)
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
}

func TestParseStat(t *testing.T) {
	state, sid, ok := parseStat("4242 (go (test) x) S 1 4240 4240 0 -1 4194560")
	if !ok || state != "S" || sid != 4240 {
		t.Fatalf("parseStat = %q %d %v, want S 4240 true", state, sid, ok)
	}
	if _, _, ok := parseStat("garbage"); ok {
		t.Fatal("parseStat accepted a line without a command")
	}
}

// TestSessionSurvivorsFindsOrphan: a shell in its own session backgrounds
// a sleep and exits; the sleep, re-parented away from the shell, is still
// found by its session id, and is gone once killed.
func TestSessionSurvivorsFindsOrphan(t *testing.T) {
	if !procfsAvailable() {
		t.Skip("no /proc on this platform")
	}
	cmd := exec.Command("sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setsid: true}
	out, err := cmd.Output()
	if err != nil {
		t.Skipf("cannot run helper shell: %v", err)
	}
	sid := cmd.Process.Pid
	survivors := SessionSurvivors(sid)
	if len(survivors) != 1 || !slices.Contains(survivors, atoiOr(string(out))) {
		t.Fatalf("survivors of session %d = %v, want the orphaned sleep %s", sid, survivors, out)
	}
	for _, pid := range survivors {
		_ = syscall.Kill(pid, syscall.SIGKILL)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(SessionSurvivors(sid)) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session %d still has %v after SIGKILL", sid, SessionSurvivors(sid))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func atoiOr(s string) int {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return -1
	}
	return n
}
