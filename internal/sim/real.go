package sim

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Real is the wall-clock implementation of Runtime: tasks are plain
// goroutines, Sleep is time.Sleep, and timers are time.AfterFunc. It lets
// the same protocol code that runs under the simulator run live, which the
// examples and musicd use.
type Real struct {
	start time.Time
	rng   *rand.Rand

	localMu sync.Mutex
	locals  map[uint64]any // goroutine id → task-local value
}

var _ Runtime = (*Real)(nil)

// NewReal returns a wall-clock runtime seeded with seed.
func NewReal(seed int64) *Real {
	return NewRealAt(time.Now(), seed)
}

// NewRealAt is NewReal with an explicit epoch: Now reports wall time elapsed
// since epoch instead of since construction. Processes that agree on one
// epoch (musicd clocks from the Unix epoch) mint directly comparable
// timestamps, so their LWW stamps and grant times order across processes
// and their recorded histories merge into a single checkable timeline. The
// epoch is re-expressed against the monotonic clock when the runtime is
// built, so a wall-clock step after that (an NTP correction) cannot move Now
// backwards.
func NewRealAt(epoch time.Time, seed int64) *Real {
	now := time.Now()
	return &Real{
		start:  now.Add(-now.Sub(epoch)),
		rng:    rand.New(&lockedSource{src: rand.NewSource(seed).(rand.Source64)}),
		locals: make(map[uint64]any),
	}
}

// Now implements Runtime.
func (r *Real) Now() time.Duration { return time.Since(r.start) }

// Sleep implements Runtime.
func (r *Real) Sleep(d time.Duration) { time.Sleep(d) }

// Go implements Runtime. The spawned goroutine inherits the spawner's
// task-local value (when any tasks carry one at all — the common case of no
// locals skips the goroutine-id lookup entirely).
func (r *Real) Go(fn func()) {
	parent := r.TaskLocal()
	if parent == nil {
		go fn()
		return
	}
	go func() {
		r.SetTaskLocal(parent)
		defer r.SetTaskLocal(nil)
		fn()
	}()
}

// TaskLocal implements Runtime. Wall-clock tasks are identified by their
// goroutine id; the map stays empty until some task sets a local, so the
// disabled-observability path never pays for the id lookup.
func (r *Real) TaskLocal() any {
	r.localMu.Lock()
	empty := len(r.locals) == 0
	r.localMu.Unlock()
	if empty {
		return nil
	}
	id := goroutineID()
	r.localMu.Lock()
	defer r.localMu.Unlock()
	return r.locals[id]
}

// SetTaskLocal implements Runtime.
func (r *Real) SetTaskLocal(v any) {
	id := goroutineID()
	r.localMu.Lock()
	defer r.localMu.Unlock()
	if v == nil {
		delete(r.locals, id)
		return
	}
	r.locals[id] = v
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine N [running]: ..."). Only paid when observability is enabled
// on a wall-clock runtime.
func goroutineID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(string(s), 10, 64)
	return id
}

// After implements Runtime.
func (r *Real) After(d time.Duration, fn func()) Timer {
	return Timer{real: time.AfterFunc(d, fn)}
}

// Rand implements Runtime. The returned source is safe for concurrent use.
func (r *Real) Rand() *rand.Rand { return r.rng }

func (r *Real) isRuntime() {}

// lockedSource makes a rand.Source64 safe for concurrent use.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}
