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
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/httpapi"
	"repro/music"
)

// lockWait is how long lock and incr wait to be granted before giving up.
const lockWait = 10 * time.Minute

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "music-cli:", err)
		os.Exit(1)
	}
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
	c := httpapi.NewClient(*addr)

	cmd, rest := rest[0], rest[1:]
	sub := flag.NewFlagSet(cmd, flag.ContinueOnError)
	refFlag := sub.Int64("ref", 0, "lock reference")
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
	ref := music.LockRef(*refFlag)

	switch cmd {
	case "lock":
		r, err := lock(c, key)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d\n", r)
		return nil
	case "acquire":
		holder, err := c.AcquireLock(key, ref)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%v\n", holder)
		return nil
	case "put":
		if ref != 0 {
			return c.CriticalPut(key, ref, []byte(*val))
		}
		return c.Put(key, []byte(*val))
	case "get":
		read := func() ([]byte, bool, error) { return c.Get(key) }
		if ref != 0 {
			read = func() ([]byte, bool, error) { return c.CriticalGet(key, ref) }
		}
		v, present, err := read()
		if err != nil {
			return err
		}
		if !present {
			return fmt.Errorf("get %s: no value", key)
		}
		fmt.Fprintf(out, "%s\n", v)
		return nil
	case "delete":
		return c.CriticalDelete(key, ref)
	case "release":
		return c.ReleaseLock(key, ref)
	case "force-release":
		return c.ForcedRelease(key, ref)
	case "keys":
		keys, err := c.GetAllKeys()
		if err != nil {
			return err
		}
		for _, k := range keys {
			fmt.Fprintln(out, k)
		}
		return nil
	case "incr":
		return incr(c, out, key)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// lock creates a lockRef for key and waits until it holds the lock.
func lock(c *httpapi.Client, key string) (music.LockRef, error) {
	ref, err := c.CreateLockRef(key)
	if err != nil {
		return 0, err
	}
	return ref, c.AwaitHolder(key, ref, lockWait)
}

// incr runs a whole critical section: lock, read, increment, write, unlock.
// Only an absent value reads as 0; any other failure, or a value that is
// not a number, is an error, so incr never overwrites what it could not
// read.
func incr(c *httpapi.Client, out io.Writer, key string) error {
	ref, err := lock(c, key)
	if err != nil {
		return err
	}
	defer func() { _ = c.ReleaseLock(key, ref) }()
	v, present, err := c.CriticalGet(key, ref)
	if err != nil {
		return err
	}
	n := 0
	if present {
		if n, err = strconv.Atoi(string(v)); err != nil {
			return fmt.Errorf("incr %s: value %q is not a number", key, v)
		}
	}
	next := strconv.Itoa(n + 1)
	if err := c.CriticalPut(key, ref, []byte(next)); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", next)
	return nil
}
