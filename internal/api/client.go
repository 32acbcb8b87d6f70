package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// StatusError is a non-2xx HTTP reply, carrying the status code and the
// server's ErrorResponse message (or a body excerpt when the body is not
// an ErrorResponse).
// The fields opt out of JSON explicitly: StatusError is a client-side
// error value, decoded from ErrorResponse but never itself on the wire.
type StatusError struct {
	Code    int    `json:"-"`
	Message string `json:"-"`
}

// Error renders the status and message in one line.
func (e *StatusError) Error() string {
	return fmt.Sprintf("api: server answered %d: %s", e.Code, e.Message)
}

// Client is a typed HTTP client for the serving tier's wire contract. It
// talks to anything exposing the /search, /healthz and /stats surface —
// one lbe-serve replica or an lbe-router front-end — with per-request
// deadlines and bounded, jitter-backed retries on transport errors and
// overload statuses.
//
// The zero value of every tunable falls back to its DefaultClient value;
// construct with New for a ready-to-use client.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8417". A
	// trailing slash is trimmed. Client configuration is never
	// JSON-encoded, so every field opts out of the wire explicitly.
	BaseURL string `json:"-"`
	// HTTPClient performs the requests; nil uses http.DefaultClient.
	// Deadlines come from the per-attempt Timeout, not the http.Client.
	HTTPClient *http.Client `json:"-"`
	// Timeout is the per-attempt deadline layered onto the caller's
	// context; 0 or negative applies no deadline beyond the context's.
	Timeout time.Duration `json:"-"`
	// Retries is the number of additional attempts after the first, spent
	// only on transport errors and retryable statuses (429, 500, 502,
	// 503, 504). Negative means no retries.
	Retries int `json:"-"`
	// RetryBackoff is the base delay before the first retry; subsequent
	// retries double it, and every wait is jittered to ±50% so synchronized
	// clients do not retry in lockstep. 0 uses 100ms.
	RetryBackoff time.Duration `json:"-"`
}

// New returns a Client for the service root with the package defaults:
// 30s per-attempt deadline, 2 retries, 100ms base backoff.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:      baseURL,
		Timeout:      30 * time.Second,
		Retries:      2,
		RetryBackoff: 100 * time.Millisecond,
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// retryableStatus reports whether a status signals transient overload
// worth retrying: searches are pure reads, so re-sending is safe.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff returns the jittered wait before retry attempt n (0-based):
// base<<n scaled by a uniform factor in [0.5, 1.5).
func (c *Client) backoff(n int) time.Duration {
	base := c.RetryBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << n
	if max := 5 * time.Second; d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// Do sends one request to path (joined to BaseURL) with bounded retries
// and returns the final status and raw response body. body may be nil
// for GETs. Do returns an error only when no attempt produced an HTTP
// response (transport failure or expired context); any received status,
// including errors, is returned to the caller verbatim — the router
// relies on this to pass replica responses through byte for byte.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	return c.do(ctx, method, path, body, nil)
}

// do is Do with a pluggable acceptance test: a reply for which accept
// reports true is final and returned without burning retries. nil
// accepts every non-retryable status.
func (c *Client) do(ctx context.Context, method, path string, body []byte, accept func(status int, data []byte) bool) (int, []byte, error) {
	if accept == nil {
		accept = func(status int, _ []byte) bool { return !retryableStatus(status) }
	}
	url := strings.TrimRight(c.BaseURL, "/") + path
	retries := c.Retries
	if retries < 0 {
		retries = 0
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		status, data, err := c.attempt(ctx, method, url, body)
		if err == nil && accept(status, data) {
			return status, data, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = &StatusError{Code: status, Message: errorMessage(data)}
		}
		if attempt >= retries {
			if err == nil {
				// The last attempt got a real (retryable) reply; hand it
				// to the caller rather than swallowing it.
				return status, data, nil
			}
			return 0, nil, fmt.Errorf("api: %s %s: %w", method, url, lastErr)
		}
		select {
		case <-time.After(c.backoff(attempt)):
		case <-ctx.Done():
			return 0, nil, fmt.Errorf("api: %s %s: %w", method, url, ctx.Err())
		}
	}
}

// attempt performs a single HTTP exchange under the per-attempt deadline.
func (c *Client) attempt(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// maxPresize bounds how much of a declared Content-Length ReadBody
// allocates before a byte has arrived.
const maxPresize = 1 << 20

// ReadBody reads r to EOF into one buffer sized from size, the body's
// declared Content-Length (-1 when unknown). A /search body that keeps to
// its declared length costs one allocation where io.ReadAll's growth from
// 512 bytes costs four. Unknown or larger sizes start at 512 and grow as
// io.ReadAll's buffer does.
func ReadBody(r io.Reader, size int64) ([]byte, error) {
	if size < 0 || size > maxPresize {
		size = 511
	}
	// One byte past the declared length, so the read that sees EOF needs
	// no room of its own.
	return AppendBody(make([]byte, 0, size+1), r)
}

// AppendBody appends r's bytes to b until EOF, growing b as io.ReadAll
// does, and returns the extended buffer.
func AppendBody(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errorMessage extracts the server's error string from a non-200 body.
func errorMessage(data []byte) string {
	var er ErrorResponse
	if json.Unmarshal(data, &er) == nil && er.Error != "" {
		return er.Error
	}
	msg := strings.TrimSpace(string(data))
	if len(msg) > 200 {
		msg = msg[:200] + "..."
	}
	return msg
}

// exchange runs one retried request and hands a 200 reply's body to
// decode. Non-200 replies that survive the retry budget surface as
// *StatusError.
func (c *Client) exchange(ctx context.Context, method, path string, body []byte, decode func([]byte) error) error {
	status, data, err := c.Do(ctx, method, path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return &StatusError{Code: status, Message: errorMessage(data)}
	}
	if err := decode(data); err != nil {
		return fmt.Errorf("api: decoding %s response: %w", path, err)
	}
	return nil
}

// Search posts the request to /search and decodes the response with
// DecodeSearchResponse, as the router decodes its holders' replies. The
// error is a *StatusError for non-200 replies that made it through the
// retry budget.
func (c *Client) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("api: encoding search request: %w", err)
	}
	var sr SearchResponse
	err = c.exchange(ctx, http.MethodPost, "/search", body, func(data []byte) (err error) {
		sr, err = DecodeSearchResponse(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &sr, nil
}

// SearchSpectra is Search over engine query spectra: it wraps them in
// wire form and posts them as one request.
func (c *Client) SearchSpectra(ctx context.Context, qs ...SpectrumJSON) (*SearchResponse, error) {
	return c.Search(ctx, SearchRequest{Spectra: qs})
}

// Health fetches /healthz. A draining server answers 503 with a valid
// HealthResponse body; Health accepts that reply on the first attempt —
// it is a final answer, not a transient failure worth retrying — and
// returns the body with a nil error, leaving Status to the caller, so a
// prober can distinguish "draining" from "gone". Statuses whose bodies
// are not HealthResponses surface as *StatusError.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	decode := func(data []byte) *HealthResponse {
		var h HealthResponse
		if json.Unmarshal(data, &h) == nil && h.Status != "" {
			return &h
		}
		return nil
	}
	status, data, err := c.do(ctx, http.MethodGet, "/healthz", nil,
		func(status int, data []byte) bool {
			return decode(data) != nil || !retryableStatus(status)
		})
	if err != nil {
		return nil, err
	}
	if h := decode(data); h != nil {
		return h, nil
	}
	return nil, &StatusError{Code: status, Message: errorMessage(data)}
}

// Stats fetches and decodes /stats from an lbe-serve replica.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var st StatsResponse
	if err := c.exchange(ctx, http.MethodGet, "/stats", nil, func(data []byte) error {
		return json.Unmarshal(data, &st)
	}); err != nil {
		return nil, err
	}
	return &st, nil
}
