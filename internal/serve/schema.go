package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/engine"
)

// EvalRequest is the /v1/eval body: one rule evaluated on one instance.
type EvalRequest struct {
	// N is the player count; 0 derives it from the π vector.
	N int `json:"n,omitempty"`
	// Delta is the bin capacity δ (required, > 0).
	Delta float64 `json:"delta"`
	// Pi optionally sets per-player input ranges (x_i ~ U[0, π_i]).
	Pi []float64 `json:"pi,omitempty"`
	// Kind is the rule family: "threshold" or "oblivious".
	Kind string `json:"kind"`
	// Param is the common threshold β (threshold) or bin-0 probability α
	// (oblivious).
	Param float64 `json:"param"`
	// Backend is "exact", "mc", "mc-qmc" or "auto" (default "auto").
	Backend string `json:"backend,omitempty"`
	// Trials overrides the sampled trial count (mc and mc-qmc backends).
	Trials int `json:"trials,omitempty"`
	// Seed seeds the Monte-Carlo streams; 0 selects the default seed 1
	// (matching the CLI default, so canonical requests match CLI output).
	Seed uint64 `json:"seed,omitempty"`
	// Workers is the parallel worker count (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// Replicates is the number of independently scrambled randomizations
	// the mc-qmc backend averages (0 = the sim default, 16). Ignored by
	// the other backends.
	Replicates int `json:"replicates,omitempty"`
	// DeadlineMS is the per-request budget in milliseconds; 0 selects the
	// server default. When an exact evaluation misses the budget the
	// response degrades to a sampled estimate (quasi-Monte-Carlo when the
	// rule supports it, plain Monte-Carlo otherwise).
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// EvalResponse is the /v1/eval reply.
type EvalResponse struct {
	N        int       `json:"n"`
	Delta    float64   `json:"delta"`
	Pi       []float64 `json:"pi,omitempty"`
	Kind     string    `json:"kind"`
	Param    float64   `json:"param"`
	P        float64   `json:"p"`
	StdErr   float64   `json:"std_err,omitempty"`
	Backend  string    `json:"backend"`
	Cached   bool      `json:"cached"`
	Degraded bool      `json:"degraded,omitempty"`
	Trials   int64     `json:"trials,omitempty"`
	// Replicates reports the mc-qmc randomization count (0 for the other
	// backends).
	Replicates int `json:"replicates,omitempty"`
}

// SweepRequest is the /v1/sweep body: one rule family evaluated on a
// parameter grid, either explicit (params) or linear (from/to/points).
type SweepRequest struct {
	N       int       `json:"n,omitempty"`
	Delta   float64   `json:"delta"`
	Pi      []float64 `json:"pi,omitempty"`
	Kind    string    `json:"kind"`
	Params  []float64 `json:"params,omitempty"`
	From    float64   `json:"from,omitempty"`
	To      float64   `json:"to,omitempty"`
	Points  int       `json:"points,omitempty"`
	Backend string    `json:"backend,omitempty"`
	Trials  int       `json:"trials,omitempty"`
	Seed    uint64    `json:"seed,omitempty"`
	Workers int       `json:"workers,omitempty"`
	// DeadlineMS bounds the whole sweep; an expired budget aborts with
	// 503 (sweeps do not degrade point-by-point).
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Stream switches the response to chunked NDJSON: one header line,
	// then one chunk line per ChunkSize evaluated points, each flushed as
	// soon as its chunk completes — the first results arrive long before
	// a large grid finishes. Errors after the header surface as a final
	// {"error": ...} line (the HTTP status is already on the wire).
	Stream bool `json:"stream,omitempty"`
	// ChunkSize is the points-per-line granularity of a streamed sweep
	// (0 = DefaultSweepChunk). Ignored unless Stream is set.
	ChunkSize int `json:"chunk_size,omitempty"`
}

// SweepStreamHeader is the first NDJSON line of a streamed sweep: the
// grid's shape, so consumers can pre-size before any chunk arrives.
type SweepStreamHeader struct {
	N      int       `json:"n"`
	Delta  float64   `json:"delta"`
	Pi     []float64 `json:"pi,omitempty"`
	Kind   string    `json:"kind"`
	Points int       `json:"points"`
	Chunk  int       `json:"chunk"`
}

// SweepStreamChunk is one NDJSON chunk line: a contiguous run of
// evaluated points starting at the given grid index.
type SweepStreamChunk struct {
	Start  int          `json:"start"`
	Points []SweepPoint `json:"points"`
}

// SweepPoint is one evaluated cell of a sweep response.
type SweepPoint struct {
	Param   float64 `json:"param"`
	P       float64 `json:"p"`
	StdErr  float64 `json:"std_err,omitempty"`
	Backend string  `json:"backend"`
	Cached  bool    `json:"cached"`
}

// SweepResponse is the /v1/sweep reply.
type SweepResponse struct {
	N      int          `json:"n"`
	Delta  float64      `json:"delta"`
	Pi     []float64    `json:"pi,omitempty"`
	Kind   string       `json:"kind"`
	Points []SweepPoint `json:"points"`
}

// OptimizeRequest is the /v1/optimize body: maximize a rule family's
// winning probability on one instance through engine.OptimizeCtx.
type OptimizeRequest struct {
	// N is the player count; 0 derives it from the π vector.
	N int `json:"n,omitempty"`
	// Delta is the bin capacity δ (required, > 0).
	Delta float64 `json:"delta"`
	// Pi optionally sets per-player input ranges (x_i ~ U[0, π_i]).
	Pi []float64 `json:"pi,omitempty"`
	// Kind is the rule family: "threshold" (symmetric β), "oblivious"
	// (symmetric α) or "vector" (the full per-player threshold vector).
	Kind string `json:"kind"`
	// Backend is "exact", "mc" or "auto" (default "auto").
	Backend string `json:"backend,omitempty"`
	// Trials overrides the Monte-Carlo trial count (mc backend).
	Trials int `json:"trials,omitempty"`
	// Seed seeds the Monte-Carlo streams; 0 selects the default seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// Workers is the parallel worker count (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// GridPoints overrides the scalar grid resolution (default 101),
	// capped at the server's MaxPoints.
	GridPoints int `json:"grid_points,omitempty"`
	// Tol overrides the convergence tolerance (default 1e-10).
	Tol float64 `json:"tol,omitempty"`
	// Passes caps the vector path's coordinate-ascent passes (default 64),
	// capped at the server's MaxPoints.
	Passes int `json:"passes,omitempty"`
	// DeadlineMS bounds the whole search; an expired budget answers with
	// the best point evaluated so far (degraded=true), or 503 when the
	// deadline struck before any probe finished.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// OptimizeResponse is the /v1/optimize reply.
type OptimizeResponse struct {
	N     int       `json:"n"`
	Delta float64   `json:"delta"`
	Pi    []float64 `json:"pi,omitempty"`
	Kind  string    `json:"kind"`
	// Params is the best parameter vector found (length 1 for the scalar
	// kinds, n for "vector").
	Params []float64 `json:"params"`
	// Param mirrors Params[0] for the scalar kinds.
	Param      float64 `json:"param,omitempty"`
	P          float64 `json:"p"`
	Backend    string  `json:"backend"`
	Evals      int     `json:"evals"`
	CacheHits  int     `json:"cache_hits"`
	Iterations int     `json:"iterations"`
	// DeltaUpdates counts the single-coordinate probes the search's
	// reusable exact evaluator served from its line profile rather than a
	// table rebuild (omitted when the search ran without table reuse).
	DeltaUpdates uint64 `json:"delta_updates,omitempty"`
	Degraded     bool   `json:"degraded,omitempty"`
}

// TableRequest is the /v1/table body: one harness table experiment by id
// or mnemonic alias (T1..T10, V1, "oblivious", "hetero", ...).
type TableRequest struct {
	ID      string    `json:"id"`
	Trials  int       `json:"trials,omitempty"`
	Seed    uint64    `json:"seed,omitempty"`
	Workers int       `json:"workers,omitempty"`
	Backend string    `json:"backend,omitempty"`
	Pi      []float64 `json:"pi,omitempty"`
}

// TableResponse is the /v1/table reply: the experiment's rendered text.
type TableResponse struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Text  string `json:"text"`
}

// errorBody is the stable JSON error shape every non-2xx response uses:
//
//	{"error": {"code": "bad_request", "message": "..."}}
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError is an error with an HTTP status and a stable machine code.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.message }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad_request", message: fmt.Sprintf(format, args...)}
}

// decodeJSON reads one JSON object into v with the service's hardening:
// a byte cap (MaxBytesReader), unknown fields rejected, and trailing
// garbage rejected. Every failure maps to a 400 apiError — malformed
// bodies must never reach the evaluation layers, let alone panic.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return badRequest("request body exceeds %d bytes", maxErr.Limit)
		}
		return badRequest("malformed JSON body: %v", err)
	}
	if dec.More() {
		return badRequest("request body must be a single JSON object")
	}
	return nil
}

// parseBackend maps the request's backend spelling ("" = auto) onto the
// engine's enum, as a 400 on failure.
func parseBackend(s string) (engine.Backend, error) {
	if s == "" {
		return engine.Auto, nil
	}
	b, err := engine.ParseBackend(s)
	if err != nil {
		return engine.Auto, badRequest("%v", err)
	}
	return b, nil
}

// finite rejects NaN/±Inf. JSON cannot encode them directly, but float
// fields are validated anyway so the decoder stays panic-proof against
// every path that might construct a request programmatically.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return badRequest("%s must be a finite number", name)
	}
	return nil
}

// writeJSON writes v with the given status. Encoding failures after the
// header is out can only be logged by the caller's middleware.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes the stable error shape.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: message}})
}

// writeErr maps an error onto the wire: apiErrors keep their status and
// code, context deadline/cancel map to 503 deadline_exceeded, and
// anything else from the evaluation layers is a client-addressable
// domain error (bad instance, unsupported rule/backend combination) → 400.
func writeErr(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeError(w, ae.status, ae.code, ae.message)
		return
	}
	if isDeadline(err) {
		writeError(w, http.StatusServiceUnavailable, "deadline_exceeded", err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", err.Error())
}

// isDeadline reports whether err is a context deadline or cancellation.
func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
