package history

import (
	"bytes"
	"fmt"
	"sort"
	"time"
)

// The ECF checker validates the paper's §III contract directly on a recorded
// history, per key:
//
//   - freshness: every successful critical get returns the latest committed
//     value — the max-v2s successful write that responded before the read was
//     invoked — or a value whose visibility is genuinely ambiguous in real
//     time (a concurrent write, or a timed-out write that may still settle).
//     A timed-out or stale-issued write whose lockRef was forcibly released
//     before the reader's grant is *dead*: the grant-time synchronize
//     re-stamps the surviving value above the old ref's v2s window, so the
//     dead write can never win a quorum merge again. Reading one is the
//     signature ECF violation (a stale lockRef's write becoming visible).
//   - ts-order: a lockRef's committed writes carry strictly increasing v2s
//     stamps in issue order; two different values at one stamp would make
//     the last-writer-wins merge order-ambiguous.
//   - ref-window: v2s sequencing stays monotone across failover — every
//     stamp of lockRef r (writes, synchronize, the forced-release δ mark)
//     is below every stamp of any later lockRef r' > r.
//   - sync-skip: a grant that follows a forced release with no grant in
//     between must have performed the data-store synchronization (§IV-B);
//     the δ-stamped synchFlag is still set and only synchronize clears it —
//     including a synchronize that acked its value rewrite and then failed
//     (its flag reset can still land): the obligation is the rewrite, and a
//     KindSync noted "rewritten" discharges it for the grant that follows.
//   - release-ack: a voluntary release must not be invoked while a critical
//     write of the same lockRef is still in flight (flush-before-release).
//   - grant-order: first grants happen in lockRef order — the lock queue is
//     FIFO over refs, so a fresh grant of a higher ref strictly after a
//     fresh grant of a lower one.
//   - echo: session reads served from the held value or the write buffer must
//     echo a value that belongs to the section — the grant seed or one of
//     the section's own writes — never another lockRef's value.
//   - lease-order: a lease-served read (Note "lease") must follow, at the
//     same site, a certified grant of its lockRef — the site lease is issued
//     by the grant, so a lease read with no prior local grant read outside
//     any live lease window.
//   - lease-window: no lease-served read after the section ended — a
//     voluntary release or an effective forced release of the lockRef that
//     completed before the read began revoked the lease.
//   - lease-epoch: a lease-served read stamped with a later epoch than its
//     grant is certified only if the key's replica set is unchanged between
//     the two epochs (same silent-adoption bar as epoch-span); a moved key
//     means the lease outlived its placement fence.
//   - monitor-coverage: adaptive weak reads (Note "one") are exempt from
//     strict freshness — serving at ONE is the point — but every weak read
//     that is *attributably stale* (its value matches a write that completed
//     before the read began while a strictly newer write had also completed,
//     both within the monitor's recent-write ring) must be matched by a
//     KindMonitor staleness event at the same site: the online monitor may
//     never miss a violation the offline checker can prove.
//
// Stale lockRefs *can* commit quorum writes in a correct run (the holder
// check reads an eventually-consistent local lock view), so "stale lockRefs
// never commit writes" is checked as observability: such writes are excluded
// from the committed set and any read returning one is a freshness
// violation. See DESIGN.md "History checking" for the soundness argument.

// Violation is one checker finding: the rule broken, the key, the offending
// ops (primary first), and a human-readable detail line.
type Violation struct {
	Rule   string
	Key    string
	Detail string
	Ops    []Op
}

// String renders the violation with its offending ops, one per line.
func (v Violation) String() string {
	s := fmt.Sprintf("ECF violation [%s] key %q: %s", v.Rule, v.Key, v.Detail)
	for _, o := range v.Ops {
		s += "\n  " + o.String()
	}
	return s
}

// Result summarizes one full history check.
type Result struct {
	Violations []Violation
	Keys       int      // keys with critical activity examined
	Ops        int      // ops consumed
	Skipped    []string // keys skipped (mixed eventual/critical traffic)
	Unbounded  []string // keys whose WGL search exceeded the node budget
}

// Ok reports a clean, fully-decided check.
func (r Result) Ok() bool { return len(r.Violations) == 0 && len(r.Unbounded) == 0 }

// CheckOptions tunes Check.
type CheckOptions struct {
	// SkipLinearize disables the per-key WGL search (the deterministic ECF
	// rules still run).
	SkipLinearize bool
	// WGLBudget caps the states explored per key; 0 means a default that
	// decides every lock-sequential history instantly.
	WGLBudget int
}

// Check runs the ECF rules and (unless disabled) the WGL linearizability
// search over a recorded history.
func Check(ops []Op, opt CheckOptions) Result {
	res := Result{Ops: len(ops)}
	// Global rules first: the epoch checker certifies membership changes
	// across the whole history (see epoch.go) before the per-key ECF rules.
	res.Violations = append(res.Violations, checkEpochs(ops)...)
	epochs, _ := epochTable(ops) // conflicts already reported by checkEpochs
	keys := partition(ops)
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		kh := keys[name]
		kh.epochs = epochs
		res.Keys++
		if kh.mixed {
			res.Skipped = append(res.Skipped, name)
			continue
		}
		res.Violations = append(res.Violations, kh.checkECF()...)
		if !opt.SkipLinearize {
			v, decided := linearizeKey(kh, opt.WGLBudget)
			res.Violations = append(res.Violations, v...)
			if !decided {
				res.Unbounded = append(res.Unbounded, name)
			}
		}
	}
	return res
}

// CheckECF runs only the deterministic ECF rules (no WGL search).
func CheckECF(ops []Op) []Violation {
	return Check(ops, CheckOptions{SkipLinearize: true}).Violations
}

// keyHistory is the per-key slice of a history, pre-sorted for the rules.
type keyHistory struct {
	key       string
	grants    []Op                    // successful acquires, by Resp
	first     map[int64]Op            // earliest successful grant per ref
	forced    map[int64]time.Duration // earliest effective forced release per ref
	forcedOps []Op                    // effective forced releases, by Resp
	writes    []Op                    // successful puts/deletes/syncs, stamped
	rewrites  []Op                    // syncs whose rewrite was acked, failed or not
	failed    []Op                    // failed stamped writes (may still settle)
	gets      []Op                    // successful critical gets
	releases  []Op                    // successful voluntary releases
	staleness []Op                    // monitor staleness events, by Resp
	mixed     bool                    // key also saw successful eventual puts
	epochs    map[int64]*epochInfo    // shared epoch table (lease-epoch rule)
}

// echoNote reports whether a get was served to its own session from the
// grant record's held value or the write buffer rather than a quorum read.
func echoNote(note string) bool { return note == NoteCache || note == NoteBuffer }

func partition(ops []Op) map[string]*keyHistory {
	keys := make(map[string]*keyHistory)
	at := func(key string) *keyHistory {
		kh := keys[key]
		if kh == nil {
			kh = &keyHistory{key: key, first: make(map[int64]Op), forced: make(map[int64]time.Duration)}
			keys[key] = kh
		}
		return kh
	}
	for _, o := range ops {
		switch o.Kind {
		case KindAcquire:
			if !o.Failed() {
				kh := at(o.Key)
				kh.grants = append(kh.grants, o)
				if f, ok := kh.first[o.Ref]; !ok || o.Resp < f.Resp {
					kh.first[o.Ref] = o
				}
			}
		case KindRelease:
			if !o.Failed() {
				at(o.Key).releases = append(at(o.Key).releases, o)
			}
		case KindForcedRelease:
			if !o.Failed() {
				kh := at(o.Key)
				kh.forcedOps = append(kh.forcedOps, o)
				if f, ok := kh.forced[o.Ref]; !ok || o.Resp < f {
					kh.forced[o.Ref] = o.Resp
				}
			}
		case KindPut, KindDelete, KindSync:
			kh := at(o.Key)
			if o.Kind == KindSync && o.Note == NoteRewritten {
				kh.rewrites = append(kh.rewrites, o)
			}
			switch {
			case !o.Failed():
				kh.writes = append(kh.writes, o)
			case o.TS != 0:
				// Stamped failure: the quorum write was issued and may
				// still settle on a minority or via hinted handoff.
				// Unstamped failures never reached the store.
				kh.failed = append(kh.failed, o)
			}
		case KindGet:
			if !o.Failed() {
				at(o.Key).gets = append(at(o.Key).gets, o)
			}
		case KindEventualPut:
			if !o.Failed() {
				at(o.Key).mixed = true
			}
		case KindMonitor:
			if !o.Failed() && o.Note == NoteStaleness {
				at(o.Key).staleness = append(at(o.Key).staleness, o)
			}
		}
	}
	for _, kh := range keys {
		sort.Slice(kh.grants, func(i, j int) bool { return kh.grants[i].Resp < kh.grants[j].Resp })
		sort.Slice(kh.forcedOps, func(i, j int) bool { return kh.forcedOps[i].Resp < kh.forcedOps[j].Resp })
		sort.Slice(kh.staleness, func(i, j int) bool { return kh.staleness[i].Resp < kh.staleness[j].Resp })
		sort.Slice(kh.writes, func(i, j int) bool {
			a, b := kh.writes[i], kh.writes[j]
			if a.Inv != b.Inv {
				return a.Inv < b.Inv
			}
			if a.TS != b.TS {
				return a.TS < b.TS
			}
			return a.ID < b.ID
		})
	}
	return keys
}

// staleIssued reports a write issued after its own lockRef was forcibly
// released: the next grant's synchronize outranks it, so under a correct
// protocol it is committed-but-masked.
func (kh *keyHistory) staleIssued(w Op) bool {
	f, ok := kh.forced[w.Ref]
	return ok && f <= w.Inv
}

// deadFor reports whether write w can no longer become visible to reader
// ref r: w's lockRef was forcibly released before r's grant completed, so
// the intervening synchronize re-stamped the surviving value above w.TS.
func (kh *keyHistory) deadFor(w Op, r int64) bool {
	if w.Ref == r {
		return false
	}
	grant, haveGrant := kh.first[r]
	if !haveGrant {
		return false
	}
	f, ok := kh.forced[w.Ref]
	return ok && f <= grant.Resp
}

func sameValue(aVal []byte, aPresent bool, bVal []byte, bPresent bool) bool {
	if aPresent != bPresent {
		return false
	}
	return !aPresent || bytes.Equal(aVal, bVal)
}

// wins mirrors store.Cell.wins: higher stamp wins; on a tie a tombstone
// beats a value and the lexically larger value beats the smaller.
func wins(a, b Op) bool {
	if a.TS != b.TS {
		return a.TS > b.TS
	}
	if a.Present != b.Present {
		return !a.Present
	}
	return bytes.Compare(a.Value, b.Value) > 0
}

func (kh *keyHistory) checkECF() []Violation {
	var vs []Violation
	vs = append(vs, kh.checkFreshness()...)
	vs = append(vs, kh.checkTSOrder()...)
	vs = append(vs, kh.checkRefWindows()...)
	vs = append(vs, kh.checkSyncSkip()...)
	vs = append(vs, kh.checkReleaseAck()...)
	vs = append(vs, kh.checkGrantOrder()...)
	vs = append(vs, kh.checkLease()...)
	vs = append(vs, kh.checkAdaptive()...)
	return vs
}

// checkFreshness is the core ECF rule: each quorum-backed critical get must
// return the latest committed value or a genuinely ambiguous one.
func (kh *keyHistory) checkFreshness() []Violation {
	var vs []Violation
	for _, g := range kh.gets {
		if echoNote(g.Note) {
			if v := kh.checkEcho(g); v != nil {
				vs = append(vs, *v)
			}
			continue
		}
		if g.Note == NoteWeak {
			continue // adaptive ONE read: judged by checkAdaptive instead
		}
		// The latest committed write: max v2s among successful writes that
		// responded before the read began, excluding committed-but-masked
		// stale-issued writes by other lockRefs.
		var mandatory Op
		haveMandatory := false
		for _, w := range kh.writes {
			if w.Resp > g.Inv {
				continue
			}
			if w.Ref != g.Ref && kh.staleIssued(w) {
				continue
			}
			if !haveMandatory || wins(w, mandatory) {
				mandatory, haveMandatory = w, true
			}
		}
		mandatoryPresent := haveMandatory && mandatory.Present
		if sameValue(g.Value, g.Present, mandatory.Value, mandatoryPresent) {
			continue
		}
		// Not the mandatory value: acceptable only if some higher-stamped
		// write is concurrent with the read, or timed out and not yet dead.
		acceptable := false
		for _, w := range kh.writes {
			if w.TS <= mandatory.TS && haveMandatory {
				continue
			}
			overlaps := w.Inv <= g.Resp && w.Resp > g.Inv
			masked := w.Ref != g.Ref && kh.staleIssued(w)
			if (overlaps || (masked && !kh.deadFor(w, g.Ref))) &&
				w.Inv <= g.Resp && sameValue(g.Value, g.Present, w.Value, w.Present) {
				acceptable = true
				break
			}
		}
		if !acceptable {
			for _, w := range kh.failed {
				if haveMandatory && w.TS <= mandatory.TS {
					continue
				}
				if w.Inv <= g.Resp && !kh.deadFor(w, g.Ref) &&
					sameValue(g.Value, g.Present, w.Value, w.Present) {
					acceptable = true
					break
				}
			}
		}
		if !acceptable {
			ops := []Op{g}
			if haveMandatory {
				ops = append(ops, mandatory)
			}
			ops = append(ops, kh.explainStale(g)...)
			vs = append(vs, Violation{
				Rule: "freshness",
				Key:  kh.key,
				Detail: fmt.Sprintf("critical get by lockRef %d returned %s; latest committed is %s",
					g.Ref, renderValue(g.Value, g.Present), renderValue(mandatory.Value, haveMandatory && mandatory.Present)),
				Ops: ops,
			})
		}
	}
	return vs
}

// explainStale finds the dead writes whose value the get echoed, so the
// violation shows *which* stale lockRef leaked through.
func (kh *keyHistory) explainStale(g Op) []Op {
	var ops []Op
	for _, w := range append(append([]Op(nil), kh.writes...), kh.failed...) {
		if kh.deadFor(w, g.Ref) && sameValue(g.Value, g.Present, w.Value, w.Present) {
			ops = append(ops, w)
			if f, ok := kh.forced[w.Ref]; ok {
				for _, fo := range kh.forcedOps {
					if fo.Ref == w.Ref && fo.Resp == f {
						ops = append(ops, fo)
						break
					}
				}
			}
		}
	}
	return ops
}

// checkEcho validates cache/buffer-served session reads: the value must
// belong to the section — the grant seed, one of the lockRef's own writes, or
// an earlier successful non-echo read of the same section (the session cache
// refreshes from in-section quorum reads; that prior read was itself
// freshness-checked, so echoing it is sound).
func (kh *keyHistory) checkEcho(g Op) *Violation {
	for _, gr := range kh.grants {
		if gr.Ref == g.Ref && sameValue(g.Value, g.Present, gr.Value, gr.Present) {
			return nil
		}
	}
	own := append(append([]Op(nil), kh.writes...), kh.failed...)
	for _, w := range own {
		if w.Ref == g.Ref && sameValue(g.Value, g.Present, w.Value, w.Present) {
			return nil
		}
	}
	for _, prior := range kh.gets {
		if prior.Ref == g.Ref && prior.ID != g.ID && !echoNote(prior.Note) &&
			!prior.Failed() && prior.Resp <= g.Inv &&
			sameValue(g.Value, g.Present, prior.Value, prior.Present) {
			return nil
		}
	}
	return &Violation{
		Rule: "echo",
		Key:  kh.key,
		Detail: fmt.Sprintf("%s-served read by lockRef %d returned %s, which is neither the grant seed, one of the section's own writes, nor an earlier read of the section",
			g.Note, g.Ref, renderValue(g.Value, g.Present)),
		Ops: []Op{g},
	}
}

// checkTSOrder: per lockRef, committed writes carry strictly increasing v2s
// stamps in issue order (equal stamps with different values are ambiguous
// under last-writer-wins and always a bug — e.g. a frozen elapsed clock).
func (kh *keyHistory) checkTSOrder() []Violation {
	var vs []Violation
	perRef := make(map[int64][]Op)
	for _, w := range kh.writes {
		if kh.staleIssued(w) {
			continue // stale writes legitimately stamp below the δ mark
		}
		perRef[w.Ref] = append(perRef[w.Ref], w)
	}
	for _, ws := range perRef {
		for i := 1; i < len(ws); i++ {
			a, b := ws[i-1], ws[i]
			if b.TS < a.TS {
				vs = append(vs, Violation{
					Rule:   "ts-order",
					Key:    kh.key,
					Detail: fmt.Sprintf("lockRef %d issued a later write with a smaller v2s stamp (%d after %d)", b.Ref, b.TS, a.TS),
					Ops:    []Op{b, a},
				})
			} else if b.TS == a.TS && !sameValue(a.Value, a.Present, b.Value, b.Present) {
				vs = append(vs, Violation{
					Rule:   "ts-order",
					Key:    kh.key,
					Detail: fmt.Sprintf("lockRef %d committed two different values at one v2s stamp %d; merge order is ambiguous", b.Ref, b.TS),
					Ops:    []Op{b, a},
				})
			}
		}
	}
	return vs
}

// checkRefWindows: every stamp of lockRef r sits below every stamp of any
// higher lockRef — the v2s window property that keeps sequencing monotone
// across failover and preemption.
func (kh *keyHistory) checkRefWindows() []Violation {
	type window struct{ min, max Op }
	wins := make(map[int64]*window)
	note := func(o Op) {
		if o.TS == 0 {
			return
		}
		w := wins[o.Ref]
		if w == nil {
			wins[o.Ref] = &window{min: o, max: o}
			return
		}
		if o.TS < w.min.TS {
			w.min = o
		}
		if o.TS > w.max.TS {
			w.max = o
		}
	}
	for _, o := range kh.writes {
		note(o)
	}
	for _, o := range kh.failed {
		note(o)
	}
	for _, o := range kh.forcedOps {
		note(o)
	}
	refs := make([]int64, 0, len(wins))
	for r := range wins {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	var vs []Violation
	for i := 1; i < len(refs); i++ {
		lo, hi := wins[refs[i-1]], wins[refs[i]]
		if lo.max.TS >= hi.min.TS {
			vs = append(vs, Violation{
				Rule: "ref-window",
				Key:  kh.key,
				Detail: fmt.Sprintf("lockRef %d stamped %d, at or above lockRef %d's stamp %d — v2s windows overlap",
					refs[i-1], lo.max.TS, refs[i], hi.min.TS),
				Ops: []Op{lo.max, hi.min},
			})
		}
	}
	return vs
}

// checkSyncSkip: the first grant after a forced release must have run the
// data-store synchronization — the δ mark is still set and nothing else
// clears it. What the rule protects is the value rewrite, acked at quorum
// under a stamp above every earlier lockRef's window; a synchronize that got
// that far and then failed (its flag reset reported too few acks, yet landed)
// has defined the store, and the retried grant that reads a clean flag is
// right not to synchronize again.
func (kh *keyHistory) checkSyncSkip() []Violation {
	firsts := make([]Op, 0, len(kh.first))
	for _, g := range kh.first {
		firsts = append(firsts, g)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i].Resp < firsts[j].Resp })
	// Concurrent preemptors may each record a forced release of the same ref;
	// the store treats those as one preemption (the duplicate's δ mark carries
	// the same v2sForced stamp and loses the LWW merge against any later clean
	// mark), so only the earliest release per ref creates an obligation.
	forced := make([]Op, 0, len(kh.forced))
	seen := make(map[int64]bool, len(kh.forced))
	for _, fo := range kh.forcedOps {
		if !seen[fo.Ref] {
			seen[fo.Ref] = true
			forced = append(forced, fo)
		}
	}
	var vs []Violation
	for i, g := range firsts {
		var f Op
		haveF := false
		for _, fo := range forced {
			if fo.Resp < g.Inv {
				f, haveF = fo, true
			}
		}
		if !haveF {
			continue
		}
		// An acquire spans enqueue (Inv) → grant (Resp), and the synchFlag
		// matters at grant time: any grant that lands after the forced
		// release and before g's own grant instant carries (and discharges)
		// the synchronization obligation, even if g was already enqueued
		// while it happened.
		intervening := false
		for _, h := range firsts[:i] {
			if h.Resp > f.Resp && h.Resp < g.Resp {
				intervening = true
				break
			}
		}
		if intervening || g.Synchronized {
			continue
		}
		// A lockRef synchronizes only as the head of the queue, so a rewrite
		// by a ref past f's and up to g's ran after f was dequeued.
		rewritten := false
		for _, s := range kh.rewrites {
			if s.Ref > f.Ref && s.Ref <= g.Ref && s.Resp <= g.Resp {
				rewritten = true
				break
			}
		}
		if rewritten {
			continue
		}
		vs = append(vs, Violation{
			Rule: "sync-skip",
			Key:  kh.key,
			Detail: fmt.Sprintf("grant of lockRef %d followed the forced release of lockRef %d without synchronizing the data store",
				g.Ref, f.Ref),
			Ops: []Op{g, f},
		})
	}
	return vs
}

// checkReleaseAck: no voluntary release while a critical write of the same
// lockRef is still in flight (write-behind must flush before release).
func (kh *keyHistory) checkReleaseAck() []Violation {
	var vs []Violation
	for _, rel := range kh.releases {
		for _, w := range kh.writes {
			if w.Kind == KindSync || w.Ref != rel.Ref {
				continue
			}
			if w.Inv < rel.Inv && w.Resp > rel.Inv {
				vs = append(vs, Violation{
					Rule:   "release-ack",
					Key:    kh.key,
					Detail: fmt.Sprintf("lockRef %d released while its critical write was still unacknowledged", rel.Ref),
					Ops:    []Op{rel, w},
				})
			}
		}
	}
	return vs
}

// checkGrantOrder: the lock queue is FIFO over refs, so fresh grants land
// in strictly increasing lockRef order.
func (kh *keyHistory) checkGrantOrder() []Violation {
	firsts := make([]Op, 0, len(kh.first))
	for _, g := range kh.first {
		firsts = append(firsts, g)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i].Resp < firsts[j].Resp })
	var vs []Violation
	for i := 1; i < len(firsts); i++ {
		if firsts[i].Ref <= firsts[i-1].Ref {
			vs = append(vs, Violation{
				Rule: "grant-order",
				Key:  kh.key,
				Detail: fmt.Sprintf("lockRef %d first granted after lockRef %d despite the FIFO queue",
					firsts[i].Ref, firsts[i-1].Ref),
				Ops: []Op{firsts[i], firsts[i-1]},
			})
		}
	}
	return vs
}

// checkLease certifies lease-served reads (Note "lease"): the site lease is
// issued by a certified grant at that site and dies with the section, so a
// lease read must follow a local grant of its lockRef (lease-order), precede
// any release of it (lease-window), and — across an epoch change — serve
// only if the key's replica set did not move (lease-epoch). Freshness is
// checked separately: lease reads stay in checkFreshness.
func (kh *keyHistory) checkLease() []Violation {
	var vs []Violation
	for _, g := range kh.gets {
		if g.Note != NoteLease {
			continue
		}
		// lease-order: a certified grant of this ref at the reading site,
		// completed before the read began.
		var grant Op
		haveGrant := false
		for _, gr := range kh.grants {
			if gr.Ref == g.Ref && gr.Site == g.Site && gr.Resp <= g.Inv {
				if !haveGrant || gr.Resp < grant.Resp {
					grant, haveGrant = gr, true
				}
			}
		}
		if !haveGrant {
			vs = append(vs, Violation{
				Rule: "lease-order",
				Key:  kh.key,
				Detail: fmt.Sprintf("site %s lease-served a read of lockRef %d with no prior certified grant at that site",
					g.Site, g.Ref),
				Ops: []Op{g},
			})
			continue
		}
		// lease-window: the section's release (voluntary or forced) revokes
		// the lease; a lease read that began after one is a use-after-free.
		closed := false
		for _, rel := range kh.releases {
			if rel.Ref == g.Ref && rel.Resp <= g.Inv {
				vs = append(vs, Violation{
					Rule: "lease-window",
					Key:  kh.key,
					Detail: fmt.Sprintf("lease-served read of lockRef %d began after the section's voluntary release completed",
						g.Ref),
					Ops: []Op{g, rel},
				})
				closed = true
				break
			}
		}
		if !closed {
			for _, fo := range kh.forcedOps {
				if fo.Ref == g.Ref && fo.Resp <= g.Inv {
					vs = append(vs, Violation{
						Rule: "lease-window",
						Key:  kh.key,
						Detail: fmt.Sprintf("lease-served read of lockRef %d began after its forced release completed",
							g.Ref),
						Ops: []Op{g, fo},
					})
					closed = true
					break
				}
			}
		}
		if closed {
			continue
		}
		// lease-epoch: same silent-adoption bar as epoch-span — a lease may
		// outlive an epoch change only if the key's replica set is unchanged.
		if g.Epoch != 0 && grant.Epoch != 0 && g.Epoch != grant.Epoch && kh.epochs != nil {
			from, to := kh.epochs[grant.Epoch], kh.epochs[g.Epoch]
			if from != nil && to != nil &&
				!sameReplicas(from.placement().ReplicasFor(kh.key), to.placement().ReplicasFor(kh.key)) {
				vs = append(vs, Violation{
					Rule: "lease-epoch",
					Key:  kh.key,
					Detail: fmt.Sprintf("lease granted under epoch %d served a read under epoch %d, which moved the key's replicas",
						grant.Epoch, g.Epoch),
					Ops: []Op{g, grant},
				})
			}
		}
	}
	return vs
}

// checkAdaptive is the monitor-coverage rule: every adaptive weak read that
// is attributably stale — by the same judgment the online monitor applies —
// must be matched (one to one, in completion order) by a KindMonitor
// staleness event at the same site. Inert on histories with no weak reads.
func (kh *keyHistory) checkAdaptive() []Violation {
	var weak []Op
	for _, g := range kh.gets {
		if g.Note == NoteWeak {
			weak = append(weak, g)
		}
	}
	if len(weak) == 0 {
		return nil
	}
	sort.Slice(weak, func(i, j int) bool { return weak[i].Resp < weak[j].Resp })
	used := make([]bool, len(kh.staleness))
	var vs []Violation
	for _, g := range weak {
		if !kh.weakStale(g) {
			continue
		}
		covered := false
		for i, e := range kh.staleness {
			if used[i] || e.Site != g.Site || e.Resp < g.Resp {
				continue
			}
			used[i], covered = true, true
			break
		}
		if !covered {
			vs = append(vs, Violation{
				Rule: "monitor-coverage",
				Key:  kh.key,
				Detail: fmt.Sprintf("weak read at site %s was attributably stale but the consistency monitor recorded no staleness event for it",
					g.Site),
				Ops: []Op{g},
			})
		}
	}
	return vs
}

// weakStale mirrors Monitor.observeWeakRead offline: the read's value matches
// a write that completed before the read began while a strictly newer write
// had also completed — and nothing concurrent or unsettled could explain the
// value. Attribution is limited to the last monitorRing completed writes,
// matching the online model.
func (kh *keyHistory) weakStale(g Op) bool {
	var max Op
	haveMax := false
	var done []Op // writes completed before the read began, in completion order
	for _, w := range kh.writes {
		if w.Resp > g.Inv {
			continue
		}
		done = append(done, w)
		if !haveMax || wins(w, max) {
			max, haveMax = w, true
		}
	}
	if !haveMax || sameValue(g.Value, g.Present, max.Value, max.Present) {
		return false
	}
	// A concurrent or unsettled write matching the value explains the read.
	for _, w := range kh.writes {
		if w.Inv <= g.Resp && w.Resp > g.Inv && sameValue(g.Value, g.Present, w.Value, w.Present) {
			return false
		}
	}
	for _, w := range kh.failed {
		if w.Inv <= g.Resp && sameValue(g.Value, g.Present, w.Value, w.Present) {
			return false
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Resp < done[j].Resp })
	if len(done) > monitorRing {
		done = done[len(done)-monitorRing:]
	}
	for _, w := range done {
		if w.TS < max.TS && sameValue(g.Value, g.Present, w.Value, w.Present) {
			return true
		}
	}
	return false
}

func renderValue(v []byte, present bool) string {
	if !present {
		return "<absent>"
	}
	return fmt.Sprintf("%q", v)
}
