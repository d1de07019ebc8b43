package history

import (
	"math"
	"sort"
	"time"
)

// linearize.go is a from-scratch Wing & Gong-style linearizability checker
// for the per-key register induced by a MUSIC history. Each key is checked
// independently (locks serialize per key, so histories decompose).
//
// The model:
//
//   - required ops: successful critical gets (quorum-backed; session echo
//     reads are excluded — the ECF "echo" rule checks them — and so are
//     adaptive weak reads, which the "monitor-coverage" rule judges)
//     and successful, non-stale critical writes including grant-time
//     synchronize rewrites. Every required op must appear in the
//     linearization, at a point inside its [Inv, Resp] interval.
//   - optional ops: stamped-but-failed writes (the quorum write was issued
//     and may settle at any later time — response extends to infinity) and
//     stale-issued successful writes (committed but masked by the next
//     grant's higher-stamped synchronize; under a correct protocol nobody
//     observes them). Optional ops may be skipped, or linearized inside
//     their (possibly unbounded) interval if some read did observe them.
//
// The search is the classic interval-order DFS: repeatedly pick a minimal
// op — one invoked before every other undone *required* op responds —
// apply it to the register, and recurse; memoize failed (done-set,
// register-state) pairs. Histories produced by a working lock are almost
// sequential, so the search is effectively linear; the node budget only
// exists to bound adversarial histories.

// wglBudget caps the states Check explores per key. It decides every
// lock-sequential history instantly.
const wglBudget = 1 << 20

// wglOp is one searchable op: a read or write of a value id.
type wglOp struct {
	op       Op
	isWrite  bool
	val      int // value id written or observed
	optional bool
	resp     time.Duration // op.Resp, or +inf for failed writes
}

// linearizeKey checks one key's history; returns violations and whether the
// search was decided within budget.
func linearizeKey(kh *keyHistory, budget int) ([]Violation, bool) {
	values := map[string]int{} // "" (absent) is id 0
	valueID := func(v []byte, present bool) int {
		if !present {
			return 0
		}
		key := "v" + string(v)
		id, ok := values[key]
		if !ok {
			id = len(values) + 1
			values[key] = id
		}
		return id
	}

	var ops []wglOp
	for _, w := range kh.writes {
		ops = append(ops, wglOp{
			op: w, isWrite: true, val: valueID(w.Value, w.Present),
			optional: w.Kind != KindSync && kh.staleIssued(w),
			resp:     w.Resp,
		})
	}
	for _, w := range kh.failed {
		ops = append(ops, wglOp{
			op: w, isWrite: true, val: valueID(w.Value, w.Present),
			optional: true, resp: time.Duration(math.MaxInt64),
		})
	}
	for _, g := range kh.gets {
		if echoNote(g.Note) {
			continue
		}
		if g.Note == NoteWeak {
			// Adaptive ONE read: exempt from strict freshness by design (the
			// monitor-coverage rule judges it), so it cannot anchor the
			// register search either — a legitimately stale weak read would
			// otherwise make a correct history non-linearizable.
			continue
		}
		ops = append(ops, wglOp{op: g, val: valueID(g.Value, g.Present), resp: g.Resp})
	}
	if len(ops) == 0 {
		return nil, true
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].op.Inv != ops[j].op.Inv {
			return ops[i].op.Inv < ops[j].op.Inv
		}
		return ops[i].op.ID < ops[j].op.ID
	})

	s := &wglSearch{ops: ops, budget: budget, memo: make(map[string]struct{})}
	done := make([]uint64, (len(ops)+63)/64)
	if s.search(done, len(ops), 0) {
		return nil, true
	}
	if s.budget <= 0 {
		return nil, false
	}
	required := make([]Op, 0, len(ops))
	for _, o := range ops {
		if !o.optional {
			required = append(required, o.op)
		}
	}
	const maxShown = 48
	if len(required) > maxShown {
		required = required[len(required)-maxShown:]
	}
	return []Violation{{
		Rule:   "linearizability",
		Key:    kh.key,
		Detail: "no linearization of the key's critical reads and writes exists",
		Ops:    required,
	}}, true
}

type wglSearch struct {
	ops    []wglOp
	budget int
	memo   map[string]struct{}
}

func (s *wglSearch) search(done []uint64, undone int, reg int) bool {
	if undone == 0 {
		return true
	}
	// Required completion: all non-optional ops must be done.
	allOptional := true
	for i, o := range s.ops {
		if done[i/64]&(1<<(i%64)) == 0 && !o.optional {
			allOptional = false
			break
		}
	}
	if allOptional {
		return true
	}
	s.budget--
	if s.budget <= 0 {
		return false
	}
	key := memoKey(done, reg)
	if _, seen := s.memo[key]; seen {
		return false
	}

	// minResp over undone required ops bounds which op may linearize next.
	minResp := time.Duration(math.MaxInt64)
	for i, o := range s.ops {
		if done[i/64]&(1<<(i%64)) == 0 && !o.optional && o.resp < minResp {
			minResp = o.resp
		}
	}
	for i, o := range s.ops {
		if done[i/64]&(1<<(i%64)) != 0 {
			continue
		}
		if o.op.Inv >= minResp && o.resp != minResp {
			continue // some undone required op responded before o began
		}
		if !o.isWrite && o.val != reg {
			continue // a read observing a different value cannot go here
		}
		next := reg
		if o.isWrite {
			next = o.val
		}
		done[i/64] |= 1 << (i % 64)
		// Choosing o skips every undone optional op that already responded
		// before o's invocation — it can never linearize after o. The skip
		// is handled implicitly: optional ops impose no minResp bound and
		// the completion test ignores them.
		ok := s.search(done, undone-1, next)
		done[i/64] &^= 1 << (i % 64)
		if ok {
			return true
		}
		if s.budget <= 0 {
			return false
		}
	}
	s.memo[key] = struct{}{}
	return false
}

func memoKey(done []uint64, reg int) string {
	b := make([]byte, 0, len(done)*8+4)
	for _, w := range done {
		for k := 0; k < 8; k++ {
			b = append(b, byte(w>>(8*k)))
		}
	}
	b = append(b, byte(reg), byte(reg>>8), byte(reg>>16), byte(reg>>24))
	return string(b)
}
