package server

import (
	"context"
	"errors"
	"net/http"
	"runtime/debug"
	"time"
)

// statusWriter captures the response code and byte count for logging and
// metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards streaming flushes so SSE works through the observe
// wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recoverPanics converts a handler crash into a 500 without killing the
// process: the panic and stack go to the log, the counter ticks, and every
// other request keeps being served.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // the server's own abort protocol; let it through
				}
				s.met.panics.Inc()
				s.cfg.Logger.Printf("panic method=%s path=%s err=%v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				// Best effort: if the handler already wrote, this is a no-op.
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// observe wraps every request with the in-flight gauge, the latency
// histogram, per-path/status counters, and one structured access-log line.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight.Inc()
		defer s.met.inflight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.met.latency.Observe(elapsed.Seconds())
		s.met.requests(r.URL.Path, sw.status).Inc()
		s.cfg.Logger.Printf("access method=%s path=%s status=%d bytes=%d dur=%s remote=%s",
			r.Method, r.URL.Path, sw.status, sw.bytes, elapsed.Round(time.Microsecond), r.RemoteAddr)
	})
}

// limitBody caps request bodies at MaxBodyBytes; decoding an oversized body
// surfaces *http.MaxBytesError, which the handlers map to 413.
func (s *Server) limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// errSaturated marks a compute rejected by admission control.
var errSaturated = errors.New("server: sweep pool saturated")

// tryAcquire claims an admission slot for the tenant without queueing:
// under saturation the caller sheds load (429) instead of stacking
// goroutines behind the worker pool.
func (s *Server) tryAcquire(name string) bool {
	if s.adm.tryAcquire(name) {
		s.met.sweepsInflight.Inc()
		return true
	}
	return false
}

func (s *Server) release(name string) {
	s.met.sweepsInflight.Dec()
	s.adm.release(name)
}

// serveCached is the compute-endpoint spine: an LRU lookup, then a
// singleflight-guarded, admission-bounded, deadline-bounded computation
// paid for out of the requesting tenant's budget. Identical concurrent
// requests compute once; repeats are O(1) cache hits and are never shed,
// rate-limited, or charged. cost is the request's estimated price in
// design-point evaluations.
//
// Tenant enforcement happens in two places. The rate limit runs before
// the singleflight, so a flooding tenant is refused even when its
// requests would all coalesce. The budget charge and the weighted
// admission slot live inside the Do closure: concurrent duplicates share
// one execution, so only the tenant whose request actually computes pays
// for it — followers get the shared bytes free, exactly like a cache
// hit.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, contentType, key string, cost int, compute func(ctx context.Context) ([]byte, error)) {
	if body, ok := s.respCache.Get(key); ok {
		s.met.cacheHits.Inc()
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("X-Cache", "hit")
		w.Write(body)
		return
	}
	t := s.tenantFor(r)
	if ok, wait := t.AllowRequest(); !ok {
		s.met.shed.Inc()
		s.met.tenantShed(t.Name()).Inc()
		w.Header().Set("Retry-After", s.retryAfter(wait))
		http.Error(w, "tenant rate limit exceeded, retry later", http.StatusTooManyRequests)
		return
	}
	s.met.cacheMisses.Inc()
	body, hit, err := s.respCache.Do(key, func() ([]byte, error) {
		if ok, wait := t.ChargeEvals(cost); !ok {
			return nil, &errBudget{wait: wait}
		}
		s.met.tenantEvals(t.Name()).Add(int64(cost))
		if !s.tryAcquire(t.Name()) {
			t.RefundEvals(cost)
			return nil, errSaturated
		}
		defer s.release(t.Name())
		s.met.tenantAdmitted(t.Name()).Inc()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		return compute(ctx)
	})
	var budgetErr *errBudget
	switch {
	case err == nil:
	case errors.Is(err, errSaturated):
		s.met.shed.Inc()
		s.met.tenantShed(t.Name()).Inc()
		w.Header().Set("Retry-After", s.retryAfter(0))
		http.Error(w, "sweep pool saturated, retry later", http.StatusTooManyRequests)
		return
	case errors.As(err, &budgetErr):
		s.met.shed.Inc()
		s.met.tenantShed(t.Name()).Inc()
		setBudgetHeaders(w, t)
		w.Header().Set("Retry-After", s.retryAfter(budgetErr.wait))
		http.Error(w, "tenant compute budget exhausted, retry later", http.StatusTooManyRequests)
		return
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "computation exceeded the request deadline", http.StatusGatewayTimeout)
		return
	case errors.Is(err, context.Canceled):
		// The client went away mid-compute; nothing useful can be written.
		http.Error(w, "request cancelled", http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(body)
}
