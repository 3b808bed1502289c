// Package httpapi defines the wire protocol between the load generator and
// the inference servers: JSON request/response bodies for the /predictions
// endpoint, the metric response headers the server reports (the paper's
// "inference server additionally communicates metrics like the inference
// duration via HTTP response headers"), and the readiness endpoint used by
// the cluster manager's probes.
package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Paths and headers of the protocol.
const (
	// PredictPath serves model inference.
	PredictPath = "/predictions"
	// ReadyPath answers readiness probes once the model is loaded. A
	// draining server fails this probe (503) so routers stop sending new
	// work, even though the process is still alive and finishing requests.
	ReadyPath = "/ping"
	// LivePath answers liveness probes: 200 whenever the process is up and
	// able to serve HTTP, including while draining. Supervisors restart a
	// pod on liveness failure; they must NOT restart on readiness failure,
	// or every graceful drain would look like a crash.
	LivePath = "/live"
	// HeaderInferenceDuration carries the server-side model execution time
	// (excluding queueing and network) as a Go duration string.
	HeaderInferenceDuration = "X-Inference-Duration"
	// HeaderBatchSize carries the size of the batch the request was served
	// in (1 for unbatched CPU serving).
	HeaderBatchSize = "X-Batch-Size"
	// HeaderDegraded marks a response that relaxed the quality contract:
	// "1" when served by the cheap fallback responder instead of the model
	// (graceful degradation under overload), DegradedPartial when merged
	// from a strict subset of shard groups (partial-result serving).
	HeaderDegraded = "X-Degraded"
	// HeaderCoverage carries the fraction of shard groups that contributed
	// to a scatter-gather response (e.g. "0.7500" when 3 of 4 answered).
	// Full-coverage responses carry "1.0000"; unsharded servers omit it.
	HeaderCoverage = "X-Coverage"
	// DegradedPartial is the HeaderDegraded value for partial-coverage
	// responses.
	DegradedPartial = "partial"
	// HeaderRequestID carries the client-chosen request id. The server
	// echoes it on every response — including 429/4xx/degraded paths — so
	// chaos-run errors are attributable to a specific request trace, and
	// retried attempts of one logical request share one id.
	HeaderRequestID = "X-Request-ID"
	// HeaderTenant names the tenant (customer / model owner) a request is
	// billed to. The scheduler keys its per-tenant queues and WDRR weights
	// on it; the server echoes it on every response — including shed,
	// degraded and partial paths — mirroring HeaderRequestID, so per-tenant
	// client-side series stay attributable even for refused work. Absent
	// means the anonymous default tenant.
	HeaderTenant = "X-Tenant"
	// HeaderDeadline carries the request's absolute deadline as Unix
	// nanoseconds. It is absolute, not a relative timeout, so it survives
	// queueing and proxy hops unchanged, and retried attempts of one
	// logical request share one deadline — the client's SLO budget does
	// not reset per attempt. Servers drop work whose deadline has passed
	// (504) instead of computing a response nobody is waiting for.
	HeaderDeadline = "X-Deadline"
	// MetricsPath serves Prometheus text exposition: request/stage latency
	// summaries, outcome counters, queue depth and drain state.
	MetricsPath = "/metrics"
	// HeaderModelVersion carries the release version that served a
	// prediction (absent when the model did not come from a release store).
	// The canary controller's blast-radius accounting — "which responses did
	// the bad version touch" — reads this header client-side.
	HeaderModelVersion = "X-Model-Version"
	// DeployPath is the admin endpoint for hot-swapping the serving model:
	// POST {"version": N} loads, verifies and atomically swaps onto release
	// N (0 = the store's CURRENT pointer). A release failing checksum or
	// deserialisation answers 422 and never serves a single request.
	DeployPath = "/admin/deploy"
)

// StatusClientClosedRequest is the nginx-convention status for a request
// abandoned by the client before the server answered. It is never written
// to the wire successfully (the client is gone); it exists for logs and
// metrics.
const StatusClientClosedRequest = 499

// StatusError reports a non-2xx HTTP response, preserving the status code
// so clients can distinguish shed load (429/503, retryable) from client
// errors (4xx, not retryable).
type StatusError struct {
	Code int
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("httpapi: server returned HTTP %d", e.Code)
}

// Degraded reports whether a response relaxed the quality contract in any
// way (fallback responder or partial shard coverage).
func Degraded(h http.Header) bool { return h.Get(HeaderDegraded) != "" }

// SetCoverageHeader stamps the shard-coverage fraction on a response.
func SetCoverageHeader(h http.Header, frac float64) {
	h.Set(HeaderCoverage, strconv.FormatFloat(frac, 'f', 4, 64))
}

// Coverage parses the coverage header; ok is false when absent or
// malformed — unparsable, NaN or outside [0, 1] (unsharded responses have
// no coverage, not zero coverage).
func Coverage(h http.Header) (float64, bool) {
	v := h.Get(HeaderCoverage)
	if v == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || !(f >= 0 && f <= 1) { // written so that NaN fails too
		return 0, false
	}
	return f, true
}

// PredictRequest asks for next-item recommendations for an ongoing session.
type PredictRequest struct {
	// SessionID identifies the visitor session (used for tracing; the
	// models are stateless and receive the full item history every call).
	SessionID int64 `json:"session_id"`
	// RequestID identifies this logical request across retries. Clients
	// usually send it in the X-Request-ID header; the body field is a
	// fallback for transports that strip headers.
	RequestID string `json:"request_id,omitempty"`
	// Tenant names the tenant the request is billed to. Clients usually
	// send it in the X-Tenant header; the body field is the same
	// stripped-header fallback RequestID has. Empty means the default
	// tenant.
	Tenant string `json:"tenant,omitempty"`
	// Items is the session's click history, most recent last.
	Items []int64 `json:"items"`
}

// DeployRequest asks a server to hot-swap onto a release version.
type DeployRequest struct {
	// Version is the release to deploy; 0 means the store's CURRENT pointer.
	Version int `json:"version"`
}

// DeployResponse reports the version serving after a deploy request.
type DeployResponse struct {
	Version int `json:"version"`
}

// PredictResponse carries the top-k recommendation list.
type PredictResponse struct {
	// Items are the recommended item ids, best first.
	Items []int64 `json:"items"`
	// Scores are the model scores aligned with Items.
	Scores []float32 `json:"scores"`
}

// Validate rejects malformed prediction requests.
func (r *PredictRequest) Validate() error {
	for _, it := range r.Items {
		if it < 0 {
			return fmt.Errorf("httpapi: negative item id %d", it)
		}
	}
	return nil
}

// WriteJSON encodes v with status code to w.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past WriteHeader can only be logged by the caller's
	// middleware; the connection is gone anyway.
	_ = json.NewEncoder(w).Encode(v)
}

// ReadJSON decodes the request body into v with a size cap.
func ReadJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, 1<<20))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("httpapi: decoding request: %w", err)
	}
	return nil
}

// SetDurationHeaders records server-side metrics on the response.
func SetDurationHeaders(h http.Header, inference time.Duration, batch int) {
	h.Set(HeaderInferenceDuration, inference.String())
	h.Set(HeaderBatchSize, strconv.Itoa(batch))
}

// InferenceDuration parses the inference-duration header from a response
// (zero when absent or malformed).
func InferenceDuration(h http.Header) time.Duration {
	d, err := time.ParseDuration(h.Get(HeaderInferenceDuration))
	if err != nil {
		return 0
	}
	return d
}

// SetDeadlineHeader stamps the request's absolute deadline. Zero deadlines
// are not written.
func SetDeadlineHeader(h http.Header, deadline time.Time) {
	if deadline.IsZero() {
		return
	}
	h.Set(HeaderDeadline, strconv.FormatInt(deadline.UnixNano(), 10))
}

// DeadlineHeader parses the deadline header; ok is false when the header
// is absent or malformed (such requests have no deadline, not an expired
// one).
func DeadlineHeader(h http.Header) (time.Time, bool) {
	v := h.Get(HeaderDeadline)
	if v == "" {
		return time.Time{}, false
	}
	ns, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ns <= 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}
