package api

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// Code is a typed, machine-parseable error code. Clients branch on the
// code — the message is for humans and may change wording freely.
type Code string

const (
	// CodeBadRequest (400): the request body or query parameters failed
	// validation.
	CodeBadRequest Code = "bad_request"
	// CodeNotFound (404): no such route.
	CodeNotFound Code = "not_found"
	// CodeBodyTooLarge (413): the request body exceeded the configured
	// size limit.
	CodeBodyTooLarge Code = "body_too_large"
	// CodeQueueFull (429): the admission wait queue is full; back off.
	CodeQueueFull Code = "queue_full"
	// CodeOverloaded (503): an admission slot did not free up within the
	// queue wait.
	CodeOverloaded Code = "overloaded"
	// CodeDeadlineExceeded (503): the per-request budget expired before
	// the ranking finished (never a partial ranking).
	CodeDeadlineExceeded Code = "deadline_exceeded"
	// CodeShardUnavailable (503): a router could not reach enough shards
	// to cover the catalog and its degraded policy is to shed.
	CodeShardUnavailable Code = "shard_unavailable"
	// CodeEpochMismatch (503): shards answered from different model
	// contents mid-reload; retry after the topology converges.
	CodeEpochMismatch Code = "epoch_mismatch"
	// CodeInternal (500): a server fault escaped the executor.
	CodeInternal Code = "internal"
)

// Status returns the HTTP status an error code is served with.
func (c Code) Status() int {
	switch c {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeOverloaded, CodeDeadlineExceeded, CodeShardUnavailable, CodeEpochMismatch:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// ErrorDetail is the inner error object: a typed code, a human-readable
// message, and an optional client back-off hint in seconds (mirrored in
// the Retry-After header when served over HTTP).
type ErrorDetail struct {
	Code       Code   `json:"code"`
	Message    string `json:"message"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

// Error makes ErrorDetail a Go error so server layers can thread a typed
// wire error through ordinary error returns.
func (e ErrorDetail) Error() string {
	return string(e.Code) + ": " + e.Message
}

// ErrorBody is the JSON envelope every non-2xx response carries:
// {"error":{"code":"...","message":"...","retry_after":2}}.
type ErrorBody struct {
	Err ErrorDetail `json:"error"`
}

// WriteError serves d as an HTTP error response: status from the code,
// Retry-After header when the detail carries a back-off hint, and the
// ErrorBody envelope as the JSON body.
func WriteError(w http.ResponseWriter, d ErrorDetail) {
	if d.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(d.RetryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(d.Code.Status())
	json.NewEncoder(w).Encode(ErrorBody{Err: d})
}

// Recover wraps a route table so a panic in any handler becomes a
// 500 internal envelope instead of a dropped connection: onPanic runs
// first (a server counts and logs it there), then the error is written.
// http.ErrAbortHandler, net/http's deliberate abort, is re-raised. A
// handler that panics after writing its header leaves that response as
// it was; the connection still survives.
func Recover(h http.Handler, onPanic func(r *http.Request, v any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			onPanic(r, v)
			WriteError(w, ErrorDetail{Code: CodeInternal, Message: "internal error"})
		}()
		h.ServeHTTP(w, r)
	})
}

// NotFoundHandler answers unknown routes with the structured envelope
// instead of net/http's plain-text default, so every error a client sees
// — 404s included — parses the same way.
func NotFoundHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, ErrorDetail{Code: CodeNotFound, Message: "no such route: " + r.URL.Path})
	})
}

// HealthzHandler answers GET /healthz with the liveness body "ok\n"
// (net/http sniffs it as text/plain). Node and router register this one
// handler, so the probe reads the same on both.
func HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
}
