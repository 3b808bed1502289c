package leakcheck

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// NoChildProcs registers a cleanup that fails the test if this process
// still has live child processes whose command name contains `name` after
// the test body returns — the orphan guard for tests that exec real server
// binaries. Like Check, it polls before declaring a leak: a child reaped
// an instant after the test body returns (SIGKILL delivered, wait racing)
// is not an orphan.
//
// The scan walks /proc (PPid from /proc/<pid>/status, command from
// /proc/<pid>/comm); on platforms without /proc the guard is a silent
// no-op rather than a false failure.
func NoChildProcs(t testing.TB, name string) {
	t.Helper()
	if !procfsAvailable() {
		return
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			orphans := childProcs(os.Getpid(), name)
			if len(orphans) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("leakcheck: %d orphaned %q child process(es) after settle window: pids %v",
					len(orphans), name, orphans)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

func procfsAvailable() bool {
	_, err := os.Stat("/proc/self/status")
	return err == nil
}

// childProcs lists live PIDs whose parent is ppid and whose comm contains
// name. Read errors are skipped: a process that exited mid-scan is exactly
// the case we do not want to report.
func childProcs(ppid int, name string) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		status, err := os.ReadFile(filepath.Join("/proc", e.Name(), "status"))
		if err != nil {
			continue
		}
		if parsePPid(string(status)) != ppid {
			continue
		}
		comm, err := os.ReadFile(filepath.Join("/proc", e.Name(), "comm"))
		if err != nil {
			continue
		}
		if strings.Contains(strings.TrimSpace(string(comm)), name) {
			out = append(out, pid)
		}
	}
	return out
}

func parsePPid(status string) int {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "PPid:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// SessionSurvivors lists the live processes of session sid: after the
// leader of a session it started with Setsid has been waited for, a
// supervisor calls it to find what the run left behind. A process
// re-parented to PID 1 keeps its session, so this finds what a scan of
// direct children misses. Zombies are left out (their parent reaps them),
// and on platforms without /proc the list is empty.
func SessionSurvivors(sid int) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		if state, session, ok := parseStat(string(stat)); ok && session == sid && state != "Z" {
			out = append(out, pid)
		}
	}
	return out
}

// parseStat returns the state and session fields of a /proc/<pid>/stat
// line: "pid (comm) state ppid pgrp session ...", where comm may itself
// hold spaces and parentheses, so the fields are counted from the last ')'.
func parseStat(stat string) (state string, session int, ok bool) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return "", 0, false
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 4 {
		return "", 0, false
	}
	session, err := strconv.Atoi(f[3])
	return f[0], session, err == nil
}
