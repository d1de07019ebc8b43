package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/membership"
	"repro/music"
)

const (
	// requestTimeout bounds every request, so a site that accepts and never
	// answers costs one error, not a hung caller.
	requestTimeout = 10 * time.Second
	// acquirePoll spaces AwaitHolder's acquireLock polls.
	acquirePoll = 20 * time.Millisecond
	// viewPoll spaces the membership reads of WaitMembership and Reconfigure.
	viewPoll = 100 * time.Millisecond
)

var httpClient = &http.Client{Timeout: requestTimeout}

// Client speaks the REST API to one site's Server: one method per Table I
// operation, plus the waits and the membership change a harness drives.
// A non-2xx reply is a *StatusError.
type Client struct{ base string }

// NewClient returns a client for the server at base, e.g.
// "http://127.0.0.1:8080".
func NewClient(base string) *Client { return &Client{base: strings.TrimRight(base, "/")} }

// StatusError is a reply whose status is not 2xx; Body is its trimmed text.
type StatusError struct {
	Method, Path string
	Code         int
	Body         string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: %d: %s", e.Method, e.Path, e.Code, e.Body)
}

// CreateLockRef mints a lockRef for key.
func (c *Client) CreateLockRef(key string) (music.LockRef, error) {
	var body lockRefBody
	err := c.call("POST", lockPath(key), nil, &body)
	return body.LockRef, err
}

// AcquireLock polls once whether ref holds key's lock.
func (c *Client) AcquireLock(key string, ref music.LockRef) (bool, error) {
	var body holderBody
	err := c.call("GET", lockPath(key)+"/"+refString(ref), nil, &body)
	return body.Holder, err
}

// AwaitHolder polls AcquireLock until ref holds key's lock, an error, or
// timeout.
func (c *Client) AwaitHolder(key string, ref music.LockRef, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		holder, err := c.AcquireLock(key, ref)
		if err != nil || holder {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lock %s/%d: not the holder within %v", key, ref, timeout)
		}
		time.Sleep(acquirePoll)
	}
}

// ReleaseLock releases ref's hold on key.
func (c *Client) ReleaseLock(key string, ref music.LockRef) error {
	return c.call("DELETE", lockPath(key)+"/"+refString(ref), nil, nil)
}

// ForcedRelease releases ref's hold on key on another's behalf.
func (c *Client) ForcedRelease(key string, ref music.LockRef) error {
	return c.call("DELETE", lockPath(key)+"/"+refString(ref)+"?forced=1", nil, nil)
}

// CriticalPut writes key's value under ref.
func (c *Client) CriticalPut(key string, ref music.LockRef, value []byte) error {
	return c.call("PUT", criticalPath(key, ref), value, nil)
}

// CriticalGet reads key's value under ref; present is false when key has
// none.
func (c *Client) CriticalGet(key string, ref music.LockRef) (value []byte, present bool, err error) {
	return c.value(criticalPath(key, ref))
}

// CriticalDelete deletes key's value under ref.
func (c *Client) CriticalDelete(key string, ref music.LockRef) error {
	return c.call("DELETE", criticalPath(key, ref), nil, nil)
}

// Put writes key's value outside any section (eventual).
func (c *Client) Put(key string, value []byte) error {
	return c.call("PUT", keyPath(key), value, nil)
}

// Get reads key's value outside any section (eventual); present is false
// when key has none.
func (c *Client) Get(key string) (value []byte, present bool, err error) {
	return c.value(keyPath(key))
}

// GetAllKeys lists every key.
func (c *Client) GetAllKeys() ([]string, error) {
	var body keysBody
	err := c.call("GET", "/v1/keys", nil, &body)
	return body.Keys, err
}

// Health checks that the server answers.
func (c *Client) Health() error { return c.call("GET", "/v1/health", nil, nil) }

// History fetches the site's recorded operations.
func (c *Client) History() ([]history.Op, error) {
	var body historyBody
	err := c.call("GET", "/v1/history", nil, &body)
	return body.Ops, err
}

// Consistency fetches the adaptive-read monitor's per-site standing.
func (c *Client) Consistency() ([]history.SiteStatus, error) {
	var body consistencyBody
	err := c.call("GET", "/v1/consistency", nil, &body)
	return body.Sites, err
}

// Membership reads the site's current membership view.
func (c *Client) Membership() (MembershipBody, error) {
	var m MembershipBody
	err := c.call("GET", "/v1/membership", nil, &m)
	return m, err
}

// WaitMembership polls the site's view until pred holds and returns it;
// after timeout it fails, naming the last view read.
func (c *Client) WaitMembership(timeout time.Duration, pred func(MembershipBody) bool) (MembershipBody, error) {
	deadline := time.Now().Add(timeout)
	for {
		m, err := c.Membership()
		if err == nil && pred(m) {
			return m, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("membership not reached within %v: epoch %d, sites %v", timeout, m.Epoch, m.Sites)
			}
			return m, err
		}
		time.Sleep(viewPoll)
	}
}

// Reconfigure drives one membership change through the site's admin
// endpoint and returns the membership that has it. A change is not
// idempotent — a replace whose propose committed but answered 503 meets
// 409 when posted again — so the site's view is read before each POST and
// after a 503 or 409, and Reconfigure returns once that view has the
// change: a joined site present, a retired one absent, a replaced one
// absent with its replacement present. Any other refusal fails at once; a
// 503, a 409 or a failed request is retried until timeout, and then
// returned.
func (c *Client) Reconfigure(op membership.Op, site, with string, timeout time.Duration) (MembershipBody, error) {
	done := func(m MembershipBody) bool {
		switch op {
		case membership.OpJoin:
			return m.Has(site)
		case membership.OpRetire:
			return !m.Has(site)
		default:
			return m.Has(with) && !m.Has(site)
		}
	}
	change, _ := json.Marshal(membershipChange{Op: op.String(), Site: site, With: with})
	deadline := time.Now().Add(timeout)
	for {
		if m, err := c.Membership(); err == nil && done(m) {
			return m, nil
		}
		var m MembershipBody
		err := c.call("POST", "/v1/admin/membership", change, &m)
		if err == nil {
			return m, nil
		}
		var se *StatusError
		if errors.As(err, &se) {
			if se.Code != http.StatusServiceUnavailable && se.Code != http.StatusConflict {
				return MembershipBody{}, err
			}
			if m, verr := c.Membership(); verr == nil && done(m) {
				return m, nil
			}
		}
		if time.Now().After(deadline) {
			return MembershipBody{}, err
		}
		time.Sleep(viewPoll)
	}
}

// Has reports whether site is a member.
func (m MembershipBody) Has(site string) bool { return slices.Contains(m.Sites, site) }

// value GETs a key path: its bytes, or present false on the API's 404
// "no value".
func (c *Client) value(path string) ([]byte, bool, error) {
	v, err := c.do("GET", path, nil)
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		var body errorBody
		if json.Unmarshal([]byte(se.Body), &body) == nil && body.Error == noValue {
			return nil, false, nil
		}
	}
	return v, err == nil, err
}

// call sends one request and, when into is non-nil, decodes the reply's
// JSON into it.
func (c *Client) call(method, path string, body []byte, into any) error {
	data, err := c.do(method, path, body)
	if err != nil || into == nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// do sends one request and returns a 2xx reply's body; any other status is
// a *StatusError.
func (c *Client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &StatusError{Method: method, Path: path, Code: resp.StatusCode, Body: strings.TrimSpace(string(data))}
	}
	return data, nil
}

func lockPath(key string) string { return "/v1/locks/" + url.PathEscape(key) }

func keyPath(key string) string { return "/v1/keys/" + url.PathEscape(key) }

func criticalPath(key string, ref music.LockRef) string {
	return keyPath(key) + "?lockRef=" + refString(ref)
}

func refString(ref music.LockRef) string { return strconv.FormatInt(int64(ref), 10) }
