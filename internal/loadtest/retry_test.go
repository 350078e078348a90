package loadtest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// timeoutErr satisfies net.Error with Timeout() == true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want errClass
	}{
		{"timeout", fmt.Errorf("POST /v1/bid: %w", timeoutErr{}), classTransient},
		{"conn reset", fmt.Errorf("read: %w", &net.OpError{Op: "read", Err: syscall.ECONNRESET}), classTransient},
		{"conn refused", fmt.Errorf("dial: %w", syscall.ECONNREFUSED), classTransient},
		{"broken pipe", fmt.Errorf("write: %w", syscall.EPIPE), classTransient},
		{"truncated body", fmt.Errorf("decode: %w", io.ErrUnexpectedEOF), classTransient},
		{"eof", io.EOF, classTransient},
		{"shed 429", &apiError{Status: http.StatusTooManyRequests}, classShed},
		{"shed 503", &apiError{Status: http.StatusServiceUnavailable}, classShed},
		{"protocol 400", &apiError{Status: http.StatusBadRequest, Msg: "unknown peer"}, classHard},
		{"protocol 500", &apiError{Status: http.StatusInternalServerError}, classHard},
		{"body too large 413", &apiError{Status: http.StatusRequestEntityTooLarge}, classHard},
		{"other", errors.New("json: cannot unmarshal"), classHard},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("%s: classify(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{MaxRetries: 3, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	for attempt := 0; attempt < 6; attempt++ {
		for i := 0; i < 50; i++ {
			d := p.backoff(attempt, 0)
			window := p.Base << uint(attempt)
			if window > p.Max {
				window = p.Max
			}
			if d < window/2 || d > window {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, window/2, window)
			}
		}
	}
	// A server Retry-After hint stretches the window but stays under the cap.
	if d := p.backoff(0, time.Minute); d > p.Max {
		t.Fatalf("hinted backoff %v exceeds cap %v", d, p.Max)
	}
}

// TestRetryRecoversShed: a 429 with Retry-After is retried and recovered,
// counted as shed + retry, not as an error surfaced to the caller.
func TestRetryRecoversShed(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "book full"})
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()

	var stats RetryStats
	c := NewClientWithRetry(srv.URL, RetryPolicy{MaxRetries: 2, Base: time.Millisecond, Max: 5 * time.Millisecond}, &stats)
	if err := c.Offer(1, 2); err != nil {
		t.Fatalf("shed offer should recover on retry: %v", err)
	}
	s := stats.Snapshot()
	if s.Shed != 1 || s.Retries != 1 || s.Transient != 0 {
		t.Fatalf("stats = %+v, want one shed + one retry", s)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}

// TestRetryRecoversConnReset: the server kills the first connection at the
// TCP level; the client classifies it transient and recovers.
func TestRetryRecoversConnReset(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatalf("hijack: %v", err)
			}
			// SetLinger(0) turns Close into an RST: the client reads a reset,
			// not a clean EOF.
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
			conn.Close()
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()

	var stats RetryStats
	c := NewClientWithRetry(srv.URL, RetryPolicy{MaxRetries: 2, Base: time.Millisecond, Max: 5 * time.Millisecond}, &stats)
	if err := c.Join(1, 0); err != nil {
		t.Fatalf("reset connection should recover on retry: %v", err)
	}
	if s := stats.Snapshot(); s.Transient != 1 || s.Retries != 1 {
		t.Fatalf("stats = %+v, want one transient + one retry", s)
	}
}

// TestHardErrorsNeverRetry: protocol errors surface immediately even with a
// generous budget.
func TestHardErrorsNeverRetry(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "unknown peer"})
	}))
	defer srv.Close()

	var stats RetryStats
	c := NewClientWithRetry(srv.URL, RetryPolicy{MaxRetries: 5, Base: time.Millisecond}, &stats)
	err := c.Offer(99, 1)
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("want the 400 apiError, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("hard error retried: %d calls", calls.Load())
	}
	if s := stats.Snapshot(); s.Retries != 0 {
		t.Fatalf("stats recorded retries for a hard error: %+v", s)
	}
}

// TestZeroPolicyNeverRetries: NewClient keeps first-failure semantics — the
// e2e golden depends on it.
func TestZeroPolicyNeverRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"book full"}`))
	}))
	defer srv.Close()

	if err := NewClient(srv.URL).Offer(1, 1); err == nil {
		t.Fatal("zero-policy client swallowed a shed answer")
	}
	if calls.Load() != 1 {
		t.Fatalf("zero-policy client retried: %d calls", calls.Load())
	}
}

// TestRetryExhaustionSurfaces: when every attempt sheds, the final error
// reaches the caller after MaxRetries re-attempts.
func TestRetryExhaustionSurfaces(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"book full"}`))
	}))
	defer srv.Close()

	var stats RetryStats
	c := NewClientWithRetry(srv.URL, RetryPolicy{MaxRetries: 2, Base: time.Millisecond, Max: 2 * time.Millisecond}, &stats)
	err := c.Offer(1, 1)
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("want the final 429, got %v", err)
	}
	if calls.Load() != 3 { // first attempt + 2 retries
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if s := stats.Snapshot(); s.Shed != 3 || s.Retries != 2 {
		t.Fatalf("stats = %+v, want 3 shed + 2 retries", s)
	}
}
