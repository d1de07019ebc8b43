package sim

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

// stepProgram is a seeded random program of jobs, run once with each job
// a task and once with each job a chain of steps. A job is spawned now or
// after a delay, serves a CPU job of random cost (zero included), may
// resolve a promise, awaits a promise with a random timeout (zero
// included; some settle in time, some time out, some were settled before),
// and spawns up to two child jobs. A root task meanwhile sleeps, settles
// promises and replaces settled ones. Every choice is drawn from the
// runtime's random source in the order the program runs, and each log line
// carries the clock, the timer sequence number, the timer count and the
// ready-queue length, so any change to who runs when, to which timers
// exist, or to the draws shows up in the log.
type stepProgram struct {
	v     *Virtual
	steps bool
	lines []string
	cpu   *Servers
	ps    []*Promise[int]
	jobs  int // jobs made so far, which names the next one
	live  int // jobs not yet finished
}

// stepJob is one job of a stepProgram. As a task it runs its phases in one
// body, waiting in place; as steps, each wait's continuation is its own
// step.
type stepJob struct {
	p          *stepProgram
	id, depth  int
	cost       time.Duration
	pick, kill int // the promise to await, and the one to resolve first
	timeout    time.Duration
	began      time.Duration // when the job started
	pr         *Promise[int] // the promise awaited
	waits      bool          // pr was unsettled, and the timeout not zero
	val        int
	err        error

	start, served, awaited *Step
}

func (p *stepProgram) log(who, format string, args ...any) {
	v := p.v
	p.lines = append(p.lines, fmt.Sprintf("%v seq=%d timers=%d ready=%d %s %s",
		v.now, v.seq, len(v.timers), len(v.ready), who, fmt.Sprintf(format, args...)))
}

func (p *stepProgram) ms(n int) time.Duration {
	return time.Duration(p.v.Rand().Intn(n)) * time.Millisecond
}

// spawn makes a job and starts it now or after a drawn delay.
func (p *stepProgram) spawn(depth int) {
	j := &stepJob{p: p, id: p.jobs, depth: depth}
	p.jobs++
	p.live++
	now := p.v.Rand().Intn(2) == 0
	var d time.Duration
	if !now {
		d = p.ms(4)
	}
	p.log("spawn", "job%d now=%v after=%v", j.id, now, d)
	if !p.steps {
		if now {
			p.v.Go(j.task)
		} else {
			p.v.After(d, j.task)
		}
		return
	}
	j.start = NewStep(p.v, j.startStep)
	j.served = NewStep(p.v, j.servedStep)
	j.awaited = NewStep(p.v, j.awaitedStep)
	if now {
		j.start.Ready()
	} else {
		j.start.After(d)
	}
}

func (j *stepJob) name() string { return fmt.Sprintf("job%d", j.id) }

func (j *stepJob) begin() {
	p := j.p
	j.cost = p.ms(3)
	j.pick, j.kill = p.v.Rand().Intn(len(p.ps)), p.v.Rand().Intn(2*len(p.ps))
	j.timeout = p.ms(5)
	j.began = p.v.now
	p.log(j.name(), "start cost=%v pick=%d kill=%d timeout=%v", j.cost, j.pick, j.kill, j.timeout)
}

func (j *stepJob) serve() {
	p := j.p
	if w := p.v.now - j.began - j.cost; w > 0 {
		p.log(j.name(), "served waitedCPU=%v", w)
	} else {
		p.log(j.name(), "served")
	}
	if j.kill < len(p.ps) {
		p.ps[j.kill].Resolve(j.id)
		p.log(j.name(), "resolved p%d", j.kill)
	}
	j.pr = p.ps[j.pick]
	j.waits = !j.pr.Done() && j.timeout > 0
}

func (j *stepJob) finish() {
	p := j.p
	p.log(j.name(), "awaited p%d waited=%v val=%d err=%v", j.pick, j.waits, j.val, j.err)
	if j.depth < 3 {
		for k := p.v.Rand().Intn(3); k > 0; k-- {
			p.spawn(j.depth + 1)
		}
	}
	p.live--
}

// task is the job as one task.
func (j *stepJob) task() {
	j.begin()
	j.p.cpu.Serve(j.cost)
	j.serve()
	j.val, j.err = j.pr.AwaitTimeout(j.timeout)
	j.finish()
}

// startStep, servedStep and awaitedStep are the job as three steps.
func (j *stepJob) startStep() {
	j.begin()
	if j.p.cpu.ServeStep(j.cost, j.served) {
		j.servedStep()
	}
}

func (j *stepJob) servedStep() {
	j.serve()
	if j.pr.AwaitStep(j.awaited, j.timeout) {
		j.awaitedStep()
	}
}

func (j *stepJob) awaitedStep() {
	j.val, j.err = j.pr.StepResult(j.awaited)
	j.finish()
}

func (p *stepProgram) run() {
	v := p.v
	rng := v.Rand()
	p.cpu = NewServers(v, 2)
	for i := 0; i < 6; i++ {
		p.ps = append(p.ps, NewPromise[int](v))
	}
	for i := 0; i < 8; i++ {
		p.spawn(0)
	}
	for p.live > 0 {
		v.Sleep(time.Duration(1+rng.Intn(2)) * time.Millisecond)
		i := rng.Intn(len(p.ps))
		switch {
		case p.ps[i].Done():
			p.ps[i] = NewPromise[int](v)
			p.log("root", "renewed p%d", i)
		case rng.Intn(2) == 0:
			p.ps[i].Resolve(-1)
			p.log("root", "resolved p%d", i)
		}
	}
	p.log("root", "jobs=%d next rng %d", p.jobs, rng.Int63())
}

func stepLog(seed int64, shuffle, steps bool) (string, error) {
	v := New(seed)
	v.SetScheduleShuffle(shuffle)
	p := &stepProgram{v: v, steps: steps}
	err := v.Run(p.run)
	return strings.Join(p.lines, "\n"), err
}

// TestStepMatchesTask runs one seeded program with its jobs as tasks and
// again with them as steps, and requires the same log: the same events in
// the same order at the same instants, with the same timer numbers, timer
// counts, ready-queue lengths and random draws. This is what lets the
// simulated network make its RPC stages steps without moving a schedule.
// A step wait that leaves a settled wake in the heap, or that readies its
// step at another point than a parked task would be unparked, fails here.
func TestStepMatchesTask(t *testing.T) {
	wokenBySettle := regexp.MustCompile(`waited=true val=-?\d+ err=<nil>`)
	var woken, timedOut, queued bool
	for _, shuffle := range []bool{false, true} {
		for seed := int64(1); seed <= 40; seed++ {
			want, werr := stepLog(seed, shuffle, false)
			got, gerr := stepLog(seed, shuffle, true)
			if werr != nil || gerr != nil {
				t.Fatalf("shuffle=%v seed %d: Run = %v with steps, %v with tasks", shuffle, seed, gerr, werr)
			}
			if got != want {
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("shuffle=%v seed %d: line %d with steps\n %s\nwith tasks\n %s", shuffle, seed, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("shuffle=%v seed %d: %d lines with steps, %d with tasks", shuffle, seed, len(gl), len(wl))
			}
			woken = woken || wokenBySettle.MatchString(got)
			timedOut = timedOut || strings.Contains(got, "waited=true val=0 err="+ErrTimeout.Error())
			queued = queued || strings.Contains(got, "waitedCPU=")
		}
	}
	if !woken || !timedOut || !queued {
		t.Fatalf("the program never exercised every wait: woken by a settle %v, timed out %v, queued for the CPU %v", woken, timedOut, queued)
	}
}

// A step that panics fails Run with its panic, as a task does, whichever
// goroutine happened to be selecting when it ran.
func TestStepPanicFailsRun(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("Run panicked with %v, want boom", r)
		}
	}()
	v := New(1)
	v.Run(func() {
		NewStep(v, func() { panic("boom") }).After(time.Millisecond)
		v.Sleep(time.Second)
		t.Error("the root ran on past the panicking step")
	})
	t.Fatal("Run returned")
}

// A step that calls a blocking operation fails Run with ErrStepWait: it
// has no task to park.
func TestStepCannotBlock(t *testing.T) {
	defer func() {
		if r := recover(); r != ErrStepWait {
			t.Fatalf("Run panicked with %v, want ErrStepWait", r)
		}
	}()
	v := New(1)
	v.Run(func() {
		NewStep(v, func() { v.Sleep(time.Millisecond) }).Ready()
		v.Sleep(time.Second)
	})
	t.Fatal("Run returned")
}

// On the wall clock a step runs on a goroutine of its own, and its waits
// block and report that it may go on at once.
func TestStepOnRealRuntime(t *testing.T) {
	r := NewReal(1)
	cpu := NewServers(r, 1)
	p := NewPromise[int](r)
	done := make(chan error, 1)
	var s *Step
	s = NewStep(r, func() {
		if !cpu.ServeStep(time.Millisecond, s) {
			done <- fmt.Errorf("ServeStep reported a wait on the wall clock")
			return
		}
		if !p.AwaitStep(s, time.Millisecond) {
			done <- fmt.Errorf("AwaitStep reported a wait on the wall clock")
			return
		}
		if _, err := p.StepResult(s); err != ErrTimeout {
			done <- fmt.Errorf("StepResult of an unsettled promise = %v, want ErrTimeout", err)
			return
		}
		p.Resolve(7)
		if v, err := p.StepResult(s); v != 7 || err != nil {
			done <- fmt.Errorf("StepResult of a settled promise = %v, %v", v, err)
			return
		}
		done <- nil
	})
	s.After(time.Millisecond)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the step did not run")
	}
}
