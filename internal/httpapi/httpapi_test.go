package httpapi

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestPredictRequestValidate(t *testing.T) {
	ok := PredictRequest{SessionID: 1, Items: []int64{0, 5, 99}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	empty := PredictRequest{}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty session must be valid (cold-start visitors): %v", err)
	}
	bad := PredictRequest{Items: []int64{3, -1}}
	if err := bad.Validate(); err == nil {
		t.Fatalf("negative item accepted")
	}
}

func TestReadJSON(t *testing.T) {
	var req PredictRequest
	if err := ReadJSON(strings.NewReader(`{"session_id":7,"items":[1,2,3]}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.SessionID != 7 || len(req.Items) != 3 {
		t.Fatalf("decoded %+v", req)
	}
	if err := ReadJSON(strings.NewReader(`{`), &req); err == nil {
		t.Fatalf("malformed JSON accepted")
	}
}

func TestReadJSONSizeCapped(t *testing.T) {
	// Just over 1 MiB of items must fail rather than exhaust memory.
	var b strings.Builder
	b.WriteString(`{"items":[`)
	for b.Len() < 1<<20+100 {
		b.WriteString("1,")
	}
	b.WriteString("1]}")
	var req PredictRequest
	if err := ReadJSON(strings.NewReader(b.String()), &req); err == nil {
		t.Fatalf("oversized body accepted")
	}
}

func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, PredictResponse{Items: []int64{4}, Scores: []float32{0.5}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"items":[4]`) {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestDurationHeadersRoundTrip(t *testing.T) {
	h := http.Header{}
	SetDurationHeaders(h, 1500*time.Microsecond, 8)
	if got := InferenceDuration(h); got != 1500*time.Microsecond {
		t.Fatalf("duration = %v", got)
	}
	if got := h.Get(HeaderBatchSize); got != "8" {
		t.Fatalf("batch = %q", got)
	}
}

func TestDeadlineHeaderRoundTrip(t *testing.T) {
	h := http.Header{}
	want := time.Unix(1722945600, 123456789)
	SetDeadlineHeader(h, want)
	got, ok := DeadlineHeader(h)
	if !ok {
		t.Fatal("deadline header not parsed back")
	}
	if !got.Equal(want) {
		t.Fatalf("deadline = %v, want %v", got, want)
	}
}

func TestDeadlineHeaderAbsentOrMalformed(t *testing.T) {
	h := http.Header{}
	if _, ok := DeadlineHeader(h); ok {
		t.Fatal("absent header parsed as a deadline")
	}
	SetDeadlineHeader(h, time.Time{})
	if h.Get(HeaderDeadline) != "" {
		t.Fatal("zero deadline must not be written")
	}
	for _, bad := range []string{"not-a-number", "-5", "0", "1.5e9"} {
		h.Set(HeaderDeadline, bad)
		if _, ok := DeadlineHeader(h); ok {
			t.Fatalf("malformed header %q parsed as a deadline", bad)
		}
	}
}

func TestInferenceDurationMalformed(t *testing.T) {
	h := http.Header{}
	if got := InferenceDuration(h); got != 0 {
		t.Fatalf("missing header = %v, want 0", got)
	}
	h.Set(HeaderInferenceDuration, "not-a-duration")
	if got := InferenceDuration(h); got != 0 {
		t.Fatalf("malformed header = %v, want 0", got)
	}
}

// Whatever SetCoverageHeader writes for a fraction in [0, 1] parses back
// to within its four-decimal rounding, and whatever Coverage accepts —
// from any header value, "NaN" and "Inf" included — is a finite fraction
// in [0, 1].
func FuzzCoverage(f *testing.F) {
	for _, seed := range []struct {
		frac float64
		raw  string
	}{
		{0.75, "NaN"}, {1, "+Inf"}, {0, "-Inf"}, {0.5, "-0"}, {0.99996, "1.00001"},
		{0.00005, "0x1p-1"}, {0.3333, "nan"}, {1, "1e-400"},
	} {
		f.Add(seed.frac, seed.raw)
	}
	f.Fuzz(func(t *testing.T, frac float64, raw string) {
		h := http.Header{}
		if frac >= 0 && frac <= 1 {
			SetCoverageHeader(h, frac)
			got, ok := Coverage(h)
			// 5e-5 is half the last written decimal; 1e-12 absorbs the
			// binary representation of the decimal read back.
			if !ok || math.Abs(got-frac) > 5e-5+1e-12 {
				t.Fatalf("SetCoverageHeader(%v) wrote %q, read back %v (ok=%v)", frac, h.Get(HeaderCoverage), got, ok)
			}
		}
		h.Set(HeaderCoverage, raw)
		if got, ok := Coverage(h); ok && !(got >= 0 && got <= 1) {
			t.Fatalf("Coverage accepted %q as %v", raw, got)
		}
	})
}
