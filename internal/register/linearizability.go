package register

import (
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// OpRecord is one completed-or-pending register operation extracted from a
// run trace, with its real-time invocation/response window.
type OpRecord struct {
	Proc     dist.ProcID
	Seq      int64
	Kind     OpKind
	Arg      Value // written value
	Ret      Value // read result
	Invoked  dist.Time
	Returned dist.Time
	Complete bool
}

// String renders the record.
func (o OpRecord) String() string {
	body := fmt.Sprintf("write(%d)", int64(o.Arg))
	if o.Kind == ReadOp {
		body = fmt.Sprintf("read()=%d", int64(o.Ret))
	}
	end := "…"
	if o.Complete {
		end = fmt.Sprintf("%d", int64(o.Returned))
	}
	return fmt.Sprintf("p%d %s [%d,%s]", int(o.Proc), body, int64(o.Invoked), end)
}

// ExtractOps pairs the Invoke/Return events of a trace into operation
// records, ordered by invocation time.
func ExtractOps(tr *trace.Trace) []OpRecord {
	type key struct {
		p   dist.ProcID
		seq int64
	}
	idx := make(map[key]int)
	var ops []OpRecord
	for _, e := range tr.Events() {
		desc, ok := e.Payload.(OpDesc)
		if !ok {
			continue
		}
		k := key{p: e.P, seq: e.Seq}
		switch e.Kind {
		case trace.InvokeKind:
			idx[k] = len(ops)
			ops = append(ops, OpRecord{
				Proc: e.P, Seq: e.Seq, Kind: desc.Kind, Arg: desc.Arg, Invoked: e.T,
			})
		case trace.ReturnKind:
			if i, found := idx[k]; found {
				ops[i].Returned = e.T
				ops[i].Ret = desc.Ret
				ops[i].Complete = true
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Invoked < ops[j].Invoked })
	return ops
}

// ExtractKeyedOps pairs the Invoke/Return events of a keyed store trace
// (KeyedOpDesc payloads) into per-key operation records, each key's history
// ordered by invocation time. It runs the op-log extractor on the trace's
// Invoke/Return events.
func ExtractKeyedOps(tr *trace.Trace) map[int][]OpRecord {
	var h keyedHistory
	h.extract(traceOps(tr))
	return h.byKey()
}

// traceOps returns the op log a trace's Invoke/Return events record.
func traceOps(tr *trace.Trace) []sim.Op {
	var log []sim.Op
	for _, e := range tr.Events() {
		if e.Kind == trace.InvokeKind || e.Kind == trace.ReturnKind {
			log = append(log, sim.Op{T: e.T, Seq: e.Seq, Desc: e.Payload, P: e.P, Ret: e.Kind == trace.ReturnKind})
		}
	}
	return log
}

// keyedHistory is a run's keyed register operations in one flat layout:
// the records of key minKey+b are ops[start[b]:start[b+1]], in invocation
// order. It is also the reusable scratch of extraction and check, so a
// verifier that keeps one allocates nothing once its buffers have grown to
// the largest run it has seen. Not safe for concurrent use.
type keyedHistory struct {
	ops    []OpRecord
	start  []int
	minKey int
	// The dense (process, seq) index of invocations: process p's seqs
	// seqLo[p]..seqHi[p] map to slot[base[p]:], each holding the ops index
	// of that seq's latest Invoke, or -1.
	seqLo, seqHi []int64
	base         []int
	slot         []int
	lin          linChecker
}

// keyedDesc returns the descriptor of a keyed store op record.
func keyedDesc(d any) (KeyedOpDesc, bool) {
	switch d := d.(type) {
	case *KeyedOpDesc:
		return *d, true
	case KeyedOpDesc:
		return d, true
	}
	return KeyedOpDesc{}, false
}

// extract fills h from an op log in time order (sim.Result.Ops). Records
// whose descriptor is not a KeyedOpDesc are skipped. Invocations are
// bucketed by key with a counting sort; a Return completes the latest
// earlier Invoke of the same process and seq, and a Return without one is
// ignored. The scratch spans the key range and each process's invoked seq
// range, which store runs keep dense: keys in [0, Keys), seqs 1 up to the
// script length.
func (h *keyedHistory) extract(log []sim.Op) {
	// Pass 1: the key range and every process's seq range.
	m, minKey, maxKey := 0, 0, -1
	h.seqLo, h.seqHi = h.seqLo[:0], h.seqHi[:0]
	for i := range log {
		op := &log[i]
		if op.Ret {
			continue
		}
		d, ok := keyedDesc(op.Desc)
		if !ok {
			continue
		}
		if m == 0 || d.Key < minKey {
			minKey = d.Key
		}
		if m == 0 || d.Key > maxKey {
			maxKey = d.Key
		}
		m++
		for int(op.P) >= len(h.seqLo) {
			h.seqLo, h.seqHi = append(h.seqLo, 1), append(h.seqHi, 0)
		}
		if lo, hi := h.seqLo[op.P], h.seqHi[op.P]; hi < lo {
			h.seqLo[op.P], h.seqHi[op.P] = op.Seq, op.Seq
		} else {
			h.seqLo[op.P], h.seqHi[op.P] = min(lo, op.Seq), max(hi, op.Seq)
		}
	}
	h.minKey = minKey
	h.start = resize(h.start, maxKey-minKey+2)
	clear(h.start)
	h.ops = resize(h.ops, m)
	h.base = resize(h.base, len(h.seqLo))
	slots := 0
	for p := range h.seqLo {
		h.base[p] = slots
		slots += int(max(h.seqHi[p]-h.seqLo[p]+1, 0))
	}
	h.slot = resize(h.slot, slots)
	for i := range h.slot {
		h.slot[i] = -1
	}
	if m == 0 {
		return
	}

	// Pass 2: count invocations per key; start[b+1] ends up as the first
	// index of bucket b, which pass 3 advances as its fill cursor.
	for i := range log {
		if op := &log[i]; !op.Ret {
			if d, ok := keyedDesc(op.Desc); ok {
				h.start[d.Key-minKey+1]++
			}
		}
	}
	for b := 1; b < len(h.start); b++ {
		h.start[b] += h.start[b-1]
	}
	copy(h.start[1:], h.start[:len(h.start)-1])
	h.start[0] = 0

	// Pass 3: place each invocation and complete it at its Return. Log
	// order is time order, so every bucket fills in invocation order.
	for i := range log {
		op := &log[i]
		d, ok := keyedDesc(op.Desc)
		if !ok {
			continue
		}
		if !op.Ret {
			b := d.Key - minKey + 1
			j := h.start[b]
			h.start[b]++
			h.ops[j] = OpRecord{Proc: op.P, Seq: op.Seq, Kind: d.Kind, Arg: d.Arg, Invoked: op.T}
			h.slot[h.base[op.P]+int(op.Seq-h.seqLo[op.P])] = j
			continue
		}
		if int(op.P) >= len(h.seqLo) || op.Seq < h.seqLo[op.P] || op.Seq > h.seqHi[op.P] {
			continue
		}
		if j := h.slot[h.base[op.P]+int(op.Seq-h.seqLo[op.P])]; j >= 0 {
			o := &h.ops[j]
			o.Returned, o.Ret, o.Complete = op.T, d.Ret, true
		}
	}
	// A log out of time order (a hand-built trace) still yields buckets in
	// invocation order: a stable insertion sort, one pass on sorted input.
	for b := 0; b+1 < len(h.start); b++ {
		ops := h.ops[h.start[b]:h.start[b+1]]
		for i := 1; i < len(ops); i++ {
			for j := i; j > 0 && ops[j].Invoked < ops[j-1].Invoked; j-- {
				ops[j], ops[j-1] = ops[j-1], ops[j]
			}
		}
	}
}

// byKey returns the extracted histories as a map from key to records,
// sharing h's storage.
func (h *keyedHistory) byKey() map[int][]OpRecord {
	byKey := make(map[int][]OpRecord)
	for b := 0; b+1 < len(h.start); b++ {
		if lo, hi := h.start[b], h.start[b+1]; hi > lo {
			byKey[h.minKey+b] = h.ops[lo:hi:hi]
		}
	}
	return byKey
}

// resize returns s with length n, reusing its storage when it is large
// enough. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// check runs the register checker on every key's history in ascending key
// order, like CheckKeyedLinearizable, reusing one memo for all keys.
func (h *keyedHistory) check(initial Value) error {
	for b := 0; b+1 < len(h.start); b++ {
		if ops := h.ops[h.start[b]:h.start[b+1]]; len(ops) > 0 {
			if err := h.lin.checkKey(h.minKey+b, ops, initial); err != nil {
				return err
			}
		}
	}
	return nil
}

// MaxOpsPerHistory is the Wing-Gong checker's hard per-history budget: the
// search tracks linearization subsets as one uint64 bitmask, so a history
// may hold at most 64 operations. Workload generators must respect it per
// key (see MaxOpsPerKey); CheckKeyedLinearizable rejects oversized keys up
// front with an error naming the key.
const MaxOpsPerHistory = 64

// CheckKeyedLinearizable runs the register checker independently on every
// key's history — the store multiplexes independent S-registers, so
// linearizability is exactly per-key linearizability. Keys are checked in
// ascending order, making failure messages deterministic. Every register
// starts at initial. A key whose history exceeds MaxOpsPerHistory is a
// setup error reported before any search runs.
func CheckKeyedLinearizable(byKey map[int][]OpRecord, initial Value) error {
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var c linChecker
	for _, k := range keys {
		if err := c.checkKey(k, byKey[k], initial); err != nil {
			return err
		}
	}
	return nil
}

// checkKey checks one key's history, naming the key in any failure.
func (c *linChecker) checkKey(k int, ops []OpRecord, initial Value) error {
	if n := len(ops); n > MaxOpsPerHistory {
		return fmt.Errorf("register: key %d has %d ops, over the checker's %d-op mask budget — spread the workload over more keys or lower ops per key", k, n, MaxOpsPerHistory)
	}
	if !c.linearizable(ops, initial) {
		return fmt.Errorf("key %d: %s", k, ExplainNonLinearizable(ops))
	}
	return nil
}

// CheckLinearizable decides whether a register history is linearizable with
// respect to the atomic read/write register starting at `initial`, using
// Wing-Gong exhaustive search with memoization. Incomplete operations
// (pending at the end of the run) may linearize or be dropped.
//
// The search is exponential in the width of concurrency but histories of up
// to 64 operations check instantly at the concurrency levels the simulator
// produces. More than 64 operations is a setup error.
func CheckLinearizable(ops []OpRecord, initial Value) (bool, error) {
	if len(ops) > MaxOpsPerHistory {
		return false, fmt.Errorf("register: history of %d ops exceeds the checker's %d-op limit", len(ops), MaxOpsPerHistory)
	}
	var c linChecker
	return c.linearizable(ops, initial), nil
}

type linState struct {
	mask uint64
	cur  Value
}

// linChecker is the Wing-Gong search state. Its memo is cleared, not
// reallocated, between histories, so one checker reused over many keys
// and runs stops allocating once the memo has grown.
type linChecker struct {
	ops          []OpRecord
	completeMask uint64
	memo         map[linState]bool
}

// linearizable runs the search on ops (at most MaxOpsPerHistory of them).
func (c *linChecker) linearizable(ops []OpRecord, initial Value) bool {
	c.ops = ops
	c.completeMask = 0
	for i, o := range ops {
		if o.Complete {
			c.completeMask |= 1 << uint(i)
		}
	}
	if c.memo == nil {
		c.memo = make(map[linState]bool)
	}
	clear(c.memo)
	return c.search(0, initial)
}

// search tries to extend a linearization in which the operations of `mask`
// have taken effect and the register currently holds cur.
func (c *linChecker) search(mask uint64, cur Value) bool {
	if mask&c.completeMask == c.completeMask {
		return true // every complete op linearized; pending ops may be dropped
	}
	st := linState{mask: mask, cur: cur}
	if v, ok := c.memo[st]; ok {
		return v
	}
	c.memo[st] = false // guard against re-entry; overwritten below

	// minRet is the earliest response among unlinearized complete ops: an
	// operation may linearize next only if it was invoked at or before that
	// response (otherwise the completed op would have to precede it).
	minRet := dist.Time(1<<62 - 1)
	for i, o := range c.ops {
		if mask&(1<<uint(i)) == 0 && o.Complete && o.Returned < minRet {
			minRet = o.Returned
		}
	}
	ok := false
	for i, o := range c.ops {
		bit := uint64(1) << uint(i)
		if mask&bit != 0 || o.Invoked > minRet {
			continue
		}
		switch o.Kind {
		case WriteOp:
			if c.search(mask|bit, o.Arg) {
				ok = true
			}
		case ReadOp:
			if (!o.Complete || o.Ret == cur) && c.search(mask|bit, cur) {
				ok = true
			}
		}
		if ok {
			break
		}
	}
	c.memo[st] = ok
	return ok
}

// ExplainNonLinearizable renders a short description of the history for
// failure messages.
func ExplainNonLinearizable(ops []OpRecord) string {
	s := "history not linearizable:"
	for _, o := range ops {
		s += "\n  " + o.String()
	}
	return s
}
