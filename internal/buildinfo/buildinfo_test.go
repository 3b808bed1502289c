package buildinfo

import (
	"strings"
	"testing"
)

func TestGetResolvesIdentity(t *testing.T) {
	info := Get()
	if info.GoVersion == "" || !strings.HasPrefix(info.GoVersion, "go") {
		t.Fatalf("GoVersion = %q, want go toolchain version", info.GoVersion)
	}
	if info.GitSHA == "" {
		t.Fatalf("GitSHA must never be empty (fallback is \"unknown\")")
	}
	if info.GOMAXPROCS < 1 {
		t.Fatalf("GOMAXPROCS = %d", info.GOMAXPROCS)
	}
	if info.Host == "" || info.OS == "" || info.Arch == "" {
		t.Fatalf("incomplete identity: %+v", info)
	}
	if again := Get(); again != info {
		t.Fatalf("Get not stable: %+v vs %+v", info, again)
	}
}

func TestCommentLineRoundTrip(t *testing.T) {
	in := Info{
		GitSHA:     "3f2a9bdeadbeefcafe0123",
		Dirty:      true,
		GoVersion:  "go1.22.1",
		Host:       "bench-box",
		GOMAXPROCS: 8,
		OS:         "linux",
		Arch:       "amd64",
	}
	line := in.CommentLine()
	if !strings.HasPrefix(line, "# build ") {
		t.Fatalf("comment line = %q", line)
	}
	out, ok := ParseCommentLine(line)
	if !ok {
		t.Fatalf("ParseCommentLine rejected %q", line)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestParseCommentLineRejectsNonStamps(t *testing.T) {
	for _, line := range []string{
		"",
		"tick,sent,completed",
		"# just a comment",
		"# build",         // no key=value pairs
		"# build garbage", // malformed pair
		"1,2,3,4.5",       // data row
		"## build git_sha=x",
	} {
		if _, ok := ParseCommentLine(line); ok {
			t.Fatalf("ParseCommentLine accepted %q", line)
		}
	}
}

func TestCommentLineSanitizesSpaces(t *testing.T) {
	in := Info{GitSHA: "a b", GoVersion: "go1.22", Host: "h\tx", GOMAXPROCS: 1, OS: "linux", Arch: "amd64"}
	line := in.CommentLine()
	out, ok := ParseCommentLine(line)
	if !ok {
		t.Fatalf("rejected sanitized line %q", line)
	}
	if out.GitSHA != "a_b" || out.Host != "h_x" {
		t.Fatalf("sanitization broken: %+v", out)
	}
}

func TestShortSHA(t *testing.T) {
	if got := (Info{GitSHA: "0123456789abcdef0123"}).ShortSHA(); got != "0123456789ab" {
		t.Fatalf("ShortSHA = %q", got)
	}
	if got := (Info{GitSHA: "abc"}).ShortSHA(); got != "abc" {
		t.Fatalf("ShortSHA = %q", got)
	}
}
