package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from perf's own files
// (spans inside the program are a later issue). Spans of one request share
// RequestID; Parent is the ID of the span that caused this one (0 = root).
//
// Only the root "request" span wraps a live HTTP round trip. Its
// descendants are replays: the same session pushed through the layer's
// public function right after the round trip, so their intervals lie after
// the root's, not inside it. Self time therefore subtracts child
// durations, clipped to the parent's own duration.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	RequestID string `json:"request_id"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends. Times are offsets
// from the recorder's epoch on the monotonic clock.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// time runs f inside a new span and returns the span's id, which later
// spans name as their parent.
func (r *recorder) time(name, requestID string, parent int, f func()) int {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, RequestID: requestID, Name: name})
	r.mu.Unlock()
	start := time.Since(r.epoch)
	f()
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].StartNs, r.spans[id-1].EndNs = int64(start), int64(end)
	r.mu.Unlock()
	return id
}

// durations returns every span duration by name, in microseconds.
func (r *recorder) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.duration())/1e3)
	}
	return out
}

// selfTimes returns each span's duration minus the time its direct
// children cover, floored at zero, keyed by span id.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.duration()
	}
	for _, s := range spans {
		if _, ok := self[s.Parent]; ok {
			self[s.Parent] -= s.duration()
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfUs is the median self time per span name, microseconds.
	SelfUs map[string]float64 `json:"self_us"`
	Spans  []span             `json:"spans"`
}

// medianSelfUs returns the median self time per span name, microseconds.
func medianSelfUs(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e3)
	}
	out := make(map[string]float64, len(byName))
	for name, v := range byName {
		out[name] = median(v)
	}
	return out
}

func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, SelfUs: medianSelfUs(r.spans), Spans: r.spans}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
