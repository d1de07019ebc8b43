package simnet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// runPanic runs fn as the root task of v and returns what Run panicked
// with, failing t if Run returned instead.
func runPanic(t *testing.T, v *sim.Virtual, fn func()) (r any) {
	t.Helper()
	defer func() { r = recover() }()
	err := v.Run(fn)
	t.Fatalf("Run returned %v; want it to panic", err)
	return nil
}

// inStep reports whether the caller runs in a step rather than a task: a
// step has no task-local to set.
func inStep(v *sim.Virtual) bool {
	v.SetTaskLocal(true)
	defer v.SetTaskLocal(nil)
	return v.TaskLocal() == nil
}

// The simulated plane offers transport.InlineHandler, and serves an inline
// service's requests in steps, with no task current, while a Handle
// registration still gets a delivery task.
func TestInlineHandlerRunsInStep(t *testing.T) {
	v, n := buildNet(t, Config{})
	if _, ok := transport.Transport(n).(transport.InlineHandler); !ok {
		t.Fatal("simnet does not offer transport.InlineHandler")
	}
	steps := map[string]bool{}
	n.HandleInline(1, "inline", func(from NodeID, req any) (any, error) {
		steps["inline"] = inStep(v)
		return req, nil
	}, time.Millisecond, 0)
	n.Handle(1, "task", func(from NodeID, req any) (any, error) {
		steps["task"] = inStep(v)
		return req, nil
	})
	err := v.Run(func() {
		for _, svc := range []string{"inline", "task"} {
			if _, err := n.Call(0, 1, svc, []byte("x")); err != nil {
				t.Errorf("Call %s: %v", svc, err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !steps["inline"] || steps["task"] {
		t.Fatalf("served in a step: %v; want the inline service only", steps)
	}
}

// An inline handler promises never to wait. The virtual plane runs it in a
// step, which cannot, so one that sleeps or awaits fails the run with an
// error naming its service — a promise nettrans has no way to check.
func TestInlineHandlerThatWaitsFailsRun(t *testing.T) {
	for name, wait := range map[string]func(v *sim.Virtual){
		"sleep": func(v *sim.Virtual) { v.Sleep(time.Millisecond) },
		"await": func(v *sim.Virtual) { sim.NewPromise[int](v).AwaitTimeout(time.Millisecond) },
	} {
		t.Run(name, func(t *testing.T) {
			v, n := buildNet(t, Config{})
			n.HandleInline(1, "svc.waits", func(from NodeID, req any) (any, error) {
				wait(v)
				return req, nil
			}, time.Millisecond, 0)
			r := runPanic(t, v, func() { n.Call(0, 1, "svc.waits", []byte("x")) })
			err, ok := r.(error)
			if !ok || !errors.Is(err, sim.ErrStepWait) || !strings.Contains(err.Error(), `"svc.waits"`) {
				t.Fatalf("Run panicked with %v; want sim.ErrStepWait naming svc.waits", r)
			}
		})
	}
}

// An inline handler that panics fails Run with its own panic, as a handler
// in a delivery task does.
func TestInlineHandlerPanicFailsRun(t *testing.T) {
	v, n := buildNet(t, Config{})
	n.HandleInline(1, "svc.panics", func(from NodeID, req any) (any, error) {
		panic("handler panic")
	}, 0, 0)
	if r := runPanic(t, v, func() { n.Call(0, 1, "svc.panics", []byte("x")) }); r != "handler panic" {
		t.Fatalf("Run panicked with %v; want the handler's panic", r)
	}
}
