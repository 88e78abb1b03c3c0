package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"drmap/internal/obs"
)

// ServerOptions tune the HTTP daemon.
type ServerOptions struct {
	// Addr is the listen address, e.g. ":8080".
	Addr string
	// RequestTimeout bounds each request's evaluation; 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Jobs, when set, is the job manager behind /api/v2/jobs and the
	// v1 synchronous wrappers; nil builds one with default options.
	Jobs *JobManager
	// Mount, when set, registers extra endpoints on the daemon's mux -
	// the cluster roles hang their /cluster/v1/* routes here.
	Mount func(mux *http.ServeMux)
	// Logger, when set, receives the structured access log (one line
	// per request, trace ID attached); nil discards it.
	Logger *slog.Logger
	// Pprof mounts the /debug/pprof profiling handlers (the -pprof
	// flag). Off by default: the endpoints expose heap contents.
	Pprof bool
	// Dashboard tunes the /debug/dashboard ops page (role name, worker
	// listing source); the zero value mounts it with defaults.
	Dashboard DashboardOptions
}

// Serving defaults.
const (
	DefaultRequestTimeout = 60 * time.Second
	DefaultShutdownGrace  = 10 * time.Second
)

// maxBodyBytes caps request bodies; custom networks are a few KB at
// most, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// errorJSON is the error response body.
type errorJSON struct {
	Error string `json:"error"`
}

// writeJSON writes v as indented JSON. A DSE result-cache hit writes
// the body its cache entry encoded once, byte-identical to encoding it
// here.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if r, ok := v.(*DSEResponse); ok && r.Cached && r.hitBody != nil {
		_, _ = w.Write(r.hitBody.get(r))
		return
	}
	_ = encodeJSON(w, v) // the status line is already out; nothing to do on error
}

// encodeJSON is writeJSON's encoding: two-space indent, trailing
// newline.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// encodedBody is a response body encoded at most once, on first use.
type encodedBody struct {
	once sync.Once
	b    []byte
}

// get returns v's encodeJSON bytes, encoding on the first call. An
// encoding error leaves the body empty, as it leaves writeJSON's.
func (e *encodedBody) get(v any) []byte {
	e.once.Do(func() {
		var buf bytes.Buffer
		if encodeJSON(&buf, v) == nil {
			e.b = buf.Bytes()
		}
	})
	return e.b
}

// writeError maps service errors onto HTTP statuses: timeouts 504,
// cancellations 503, computation failures 500, oversized bodies 413,
// unknown jobs 404, cancels of finished jobs 409, a full job store
// 503, bad inputs 400.
func writeError(w http.ResponseWriter, err error) {
	var internal *internalError
	var tooBig *http.MaxBytesError
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrJobNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrJobFinished):
		status = http.StatusConflict
	case errors.Is(err, ErrJobStoreFull):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &internal):
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// handle adapts a typed service call into an HTTP handler with the
// request timeout applied.
func handle[Req, Resp any](timeout time.Duration, call func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		resp, err := call(ctx, req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// NewHandler wires the Service's endpoints onto a mux:
//
//	GET  /healthz
//	GET  /metrics
//	GET  /api/v1/version
//	GET  /api/v1/policies
//	GET  /api/v1/backends
//	POST /api/v1/characterize
//	POST /api/v1/dse
//	POST /api/v1/batch
//	POST /api/v1/simulate
//	POST /api/v1/sweep
//	GET  /api/v1/traces
//	GET  /api/v1/traces/{id}
//
// plus the /api/v2/jobs surface (see mountV2), backed by a job manager
// with default options; NewHandlerWithJobs accepts a tuned one. The v1
// dse/batch/characterize/sweep handlers are synchronous submit-and-wait
// wrappers over that same job manager, with responses identical to the
// pre-job direct handlers.
//
// The returned mux is open for further registration (cluster roles add
// their /cluster/v1/* endpoints).
func NewHandler(s *Service, requestTimeout time.Duration) *http.ServeMux {
	return NewHandlerWithJobs(s, nil, requestTimeout)
}

// NewHandlerWithJobs is NewHandler with an explicit job manager (nil
// builds one with default options). The manager must wrap the same
// Service.
func NewHandlerWithJobs(s *Service, jm *JobManager, requestTimeout time.Duration) *http.ServeMux {
	if requestTimeout <= 0 {
		requestTimeout = DefaultRequestTimeout
	}
	if jm == nil {
		jm = NewJobManager(s, JobManagerOptions{})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(s.MetricsText()))
	})
	mux.HandleFunc("GET /api/v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Version())
	})
	mux.HandleFunc("GET /api/v1/policies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Policies())
	})
	mux.HandleFunc("GET /api/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Backends())
	})
	mux.HandleFunc("POST /api/v1/characterize", handle(requestTimeout, jm.SyncCharacterize))
	// GET /api/v1/characterize?arch=ddr3 is a bodyless convenience form.
	mux.HandleFunc("GET /api/v1/characterize", func(w http.ResponseWriter, r *http.Request) {
		var req CharacterizeRequest
		if q := r.URL.Query().Get("arch"); q != "" && q != "all" {
			req.Archs = strings.Split(q, ",")
		}
		ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
		defer cancel()
		resp, err := jm.SyncCharacterize(ctx, req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /api/v1/dse", handle(requestTimeout, jm.SyncDSE))
	mux.HandleFunc("POST /api/v1/batch", handle(requestTimeout, jm.SyncBatch))
	mux.HandleFunc("POST /api/v1/simulate", handle(requestTimeout, jm.SyncSimulate))
	mux.HandleFunc("POST /api/v1/sweep", handle(requestTimeout, jm.SyncSweep))
	mountV2(mux, jm)
	mountTraces(mux, s)
	return mux
}

// NewServer builds the drmap-serve HTTP server with sane transport
// timeouts. WriteTimeout leaves headroom over the request timeout so
// handler deadlines, not connection teardown, bound evaluations; the
// v2 event-stream handler lifts its own write deadline, since a job's
// stream legitimately outlives any request timeout. Every route is
// wrapped in the Observe middleware: trace IDs in and out, the
// request-duration histogram, and the structured access log.
func NewServer(s *Service, opt ServerOptions) *http.Server {
	reqTimeout := opt.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = DefaultRequestTimeout
	}
	jm := opt.Jobs
	if jm == nil {
		jm = NewJobManager(s, JobManagerOptions{})
	}
	mux := NewHandlerWithJobs(s, jm, reqTimeout)
	if opt.Mount != nil {
		opt.Mount(mux)
	}
	MountDashboard(mux, s, jm, opt.Dashboard)
	if opt.Pprof {
		obs.MountPprof(mux)
	}
	return &http.Server{
		Addr:              opt.Addr,
		Handler:           Observe(mux, s.Registry(), opt.Logger, s.Spans()),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      reqTimeout + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Run serves until ctx is canceled, then shuts down gracefully within
// the grace period, letting in-flight evaluations finish.
func Run(ctx context.Context, srv *http.Server, grace time.Duration) error {
	if grace <= 0 {
		grace = DefaultShutdownGrace
	}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("service: shutdown: %w", err)
	}
	return <-errCh
}
