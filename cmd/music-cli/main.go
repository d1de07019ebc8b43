// Command music-cli talks to a musicd REST endpoint: it can run whole
// critical sections or individual Table I operations from the shell.
//
//	music-cli -addr http://localhost:8080 lock counter
//	music-cli -addr http://localhost:8080 put counter -ref 3 -value 42
//	music-cli -addr http://localhost:8080 get counter -ref 3
//	music-cli -addr http://localhost:8080 release counter -ref 3
//	music-cli -addr http://localhost:8080 keys
//	music-cli -addr http://localhost:8080 incr counter    # full critical section
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "music-cli:", err)
		os.Exit(1)
	}
}

type cli struct {
	base string
	hc   *http.Client
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("music-cli", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "musicd base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: music-cli [-addr URL] lock|acquire|put|get|delete|release|force-release|keys|incr ...")
	}
	c := &cli{base: strings.TrimRight(*addr, "/"), hc: &http.Client{Timeout: 30 * time.Second}}

	cmd, rest := rest[0], rest[1:]
	sub := flag.NewFlagSet(cmd, flag.ContinueOnError)
	ref := sub.Int64("ref", 0, "lock reference")
	val := sub.String("value", "", "value to write")

	key := ""
	if cmd != "keys" {
		if len(rest) == 0 {
			return fmt.Errorf("%s: key required", cmd)
		}
		key, rest = rest[0], rest[1:]
	}
	if err := sub.Parse(rest); err != nil {
		return err
	}

	switch cmd {
	case "lock":
		r, err := c.createRef(key)
		if err != nil {
			return err
		}
		if err := c.await(key, r); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d\n", r)
		return nil
	case "acquire":
		holder, err := c.acquire(key, *ref)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%v\n", holder)
		return nil
	case "put":
		q := ""
		if *ref != 0 {
			q = "?lockRef=" + strconv.FormatInt(*ref, 10)
		}
		return c.expect(http.StatusNoContent, "PUT", "/v1/keys/"+key+q, *val, nil)
	case "get":
		q := ""
		if *ref != 0 {
			q = "?lockRef=" + strconv.FormatInt(*ref, 10)
		}
		body, err := c.body("GET", "/v1/keys/"+key+q, "")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", body)
		return nil
	case "delete":
		return c.expect(http.StatusNoContent, "DELETE",
			fmt.Sprintf("/v1/keys/%s?lockRef=%d", key, *ref), "", nil)
	case "release":
		return c.expect(http.StatusNoContent, "DELETE",
			fmt.Sprintf("/v1/locks/%s/%d", key, *ref), "", nil)
	case "force-release":
		return c.expect(http.StatusNoContent, "DELETE",
			fmt.Sprintf("/v1/locks/%s/%d?forced=1", key, *ref), "", nil)
	case "keys":
		body, err := c.body("GET", "/v1/keys", "")
		if err != nil {
			return err
		}
		var parsed struct {
			Keys []string `json:"keys"`
		}
		if err := json.Unmarshal([]byte(body), &parsed); err != nil {
			return err
		}
		for _, k := range parsed.Keys {
			fmt.Fprintln(out, k)
		}
		return nil
	case "incr":
		return c.incr(out, key)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// incr runs a whole critical section: lock, read, increment, write, unlock.
func (c *cli) incr(out io.Writer, key string) error {
	ref, err := c.createRef(key)
	if err != nil {
		return err
	}
	if err := c.await(key, ref); err != nil {
		return err
	}
	defer func() {
		_ = c.expect(http.StatusNoContent, "DELETE", fmt.Sprintf("/v1/locks/%s/%d", key, ref), "", nil)
	}()
	n, err := c.counter(key, ref)
	if err != nil {
		return err
	}
	next := strconv.Itoa(n + 1)
	if err := c.expect(http.StatusNoContent, "PUT",
		fmt.Sprintf("/v1/keys/%s?lockRef=%d", key, ref), next, nil); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", next)
	return nil
}

// counter reads key's value under ref as a decimal count. Only the API's
// 404 "no value" reads as 0; any other failure, or a value that is not a
// number, is an error, so incr never overwrites what it could not read.
func (c *cli) counter(key string, ref int64) (int, error) {
	path := fmt.Sprintf("/v1/keys/%s?lockRef=%d", key, ref)
	text, code, err := c.do("GET", path, "")
	if err != nil {
		return 0, err
	}
	if code == http.StatusNotFound {
		var notFound struct {
			Error string `json:"error"`
		}
		if json.Unmarshal([]byte(text), &notFound) == nil && notFound.Error == "no value" {
			return 0, nil
		}
	}
	if code/100 != 2 {
		return 0, fmt.Errorf("GET %s: %d: %s", path, code, strings.TrimSpace(text))
	}
	n, err := strconv.Atoi(text)
	if err != nil {
		return 0, fmt.Errorf("incr %s: value %q is not a number", key, text)
	}
	return n, nil
}

func (c *cli) createRef(key string) (int64, error) {
	var created struct {
		LockRef int64 `json:"lockRef"`
	}
	if err := c.expect(http.StatusCreated, "POST", "/v1/locks/"+key, "", &created); err != nil {
		return 0, err
	}
	return created.LockRef, nil
}

func (c *cli) acquire(key string, ref int64) (bool, error) {
	var acq struct {
		Holder bool `json:"holder"`
	}
	err := c.expect(http.StatusOK, "GET", fmt.Sprintf("/v1/locks/%s/%d", key, ref), "", &acq)
	return acq.Holder, err
}

func (c *cli) await(key string, ref int64) error {
	backoff := 5 * time.Millisecond
	for i := 0; i < 2000; i++ {
		holder, err := c.acquire(key, ref)
		if err != nil {
			return err
		}
		if holder {
			return nil
		}
		time.Sleep(backoff)
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
	return fmt.Errorf("lock %s/%d: gave up waiting", key, ref)
}

// expect performs a request, demands a status, and optionally decodes JSON.
func (c *cli) expect(status int, method, path, body string, into any) error {
	text, code, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	if code != status {
		return fmt.Errorf("%s %s: %d: %s", method, path, code, strings.TrimSpace(text))
	}
	if into != nil {
		return json.Unmarshal([]byte(text), into)
	}
	return nil
}

func (c *cli) body(method, path, body string) (string, error) {
	text, code, err := c.do(method, path, body)
	if err != nil {
		return "", err
	}
	if code/100 != 2 {
		return "", fmt.Errorf("%s %s: %d: %s", method, path, code, strings.TrimSpace(text))
	}
	return text, nil
}

func (c *cli) do(method, path, body string) (string, int, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	return string(b), resp.StatusCode, nil
}
