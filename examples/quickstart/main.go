// Quickstart: the paper's Listing 1 — a critical section that reads the
// latest value of a key, updates it, and writes it back with exclusive
// access, against a three-site MUSIC cluster simulated in virtual time.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"repro/music"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// A three-site cluster on the fast local profile. It runs in virtual
	// time: every operation happens inside c.Run.
	c, err := music.New(music.WithProfile(music.ProfileLocal))
	if err != nil {
		return err
	}
	var runErr error
	if err := c.Run(func() { runErr = listing1(out, c) }); err != nil {
		return err
	}
	return runErr
}

// listing1 runs the paper's Listing 1 once explicitly, then once from every
// site through RunCritical.
func listing1(out io.Writer, c *music.Cluster) error {
	cl := c.Client(c.Sites()[0])
	// Listing 1, spelled out: createLockRef → poll acquireLock →
	// criticalGet → compute → criticalPut → releaseLock.
	lockRef, err := cl.CreateLockRef("counter")
	if err != nil {
		return err
	}
	if err := cl.AwaitLock("counter", lockRef, 0); err != nil {
		return err
	}
	v1, err := cl.CriticalGet("counter", lockRef) // guaranteed latest value
	if err != nil {
		return err
	}
	n := 0
	if v1 != nil {
		n, _ = strconv.Atoi(string(v1))
	}
	if err := cl.CriticalPut("counter", lockRef, []byte(strconv.Itoa(n+1))); err != nil {
		return err
	}
	if err := cl.ReleaseLock("counter", lockRef); err != nil {
		return err
	}
	fmt.Fprintf(out, "explicit critical section: counter %d -> %d\n", n, n+1)

	// The same thing via the RunCritical convenience, from every site.
	for _, site := range c.Sites() {
		err := c.Client(site).RunCritical("counter", func(cs *music.CriticalSection) error {
			v, err := cs.Get()
			if err != nil {
				return err
			}
			n, _ := strconv.Atoi(string(v))
			fmt.Fprintf(out, "site %-8s sees latest value %d, increments\n", site, n)
			return cs.Put([]byte(strconv.Itoa(n + 1)))
		})
		if err != nil {
			return err
		}
	}

	final, err := cl.Get("counter")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "final counter: %s (1 explicit + %d RunCritical increments)\n", final, len(c.Sites()))
	return nil
}
