package register

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// scanDoneOn is StoreNode.DoneOn as it was before the busy set: a scan of
// every shard queue and every outstanding op. The bookkeeping test holds the
// incremental set to it.
func scanDoneOn(a *StoreNode, avail ShardSet) bool {
	for sh := range a.queues {
		if avail.Has(sh) && len(a.queues[sh]) > 0 {
			return false
		}
	}
	for i := range a.pend {
		if avail.Has(a.pend[i].shard) {
			return false
		}
	}
	return true
}

// checkStoreBookkeeping compares every node's incremental sets with a scan
// of the state they summarize: DoneOn must agree with scanDoneOn on every
// single shard and on all of them, and outDirty must be exactly the shards
// whose request accumulators hold entries (parked ones included).
func checkStoreBookkeeping(sn *sim.Snapshot, n int) error {
	for p := dist.ProcID(1); int(p) <= n; p++ {
		a, ok := sn.Automaton(p).(*StoreNode)
		if !ok {
			return fmt.Errorf("p%d runs %T, not a StoreNode", int(p), sn.Automaton(p))
		}
		shards := a.shards.Shards()
		if got, want := a.DoneOn(FullShardSet(shards)), scanDoneOn(a, FullShardSet(shards)); got != want {
			return fmt.Errorf("t=%d p%d: DoneOn(all) = %v, the scan says %v", int64(sn.Now()), int(p), got, want)
		}
		var dirty ShardSet
		for sh := 0; sh < shards; sh++ {
			one := NewShardSet(sh)
			if got, want := a.DoneOn(one), scanDoneOn(a, one); got != want {
				return fmt.Errorf("t=%d p%d: DoneOn(s%d) = %v, the scan says %v", int64(sn.Now()), int(p), sh, got, want)
			}
			if len(a.qOut[sh]) > 0 || len(a.sOut[sh]) > 0 {
				dirty = dirty.Add(sh)
			}
		}
		if a.outDirty != dirty {
			return fmt.Errorf("t=%d p%d: outDirty = %v, non-empty accumulators %v", int64(sn.Now()), int(p), a.outDirty, dirty)
		}
	}
	return nil
}

// TestStoreBookkeepingMatchesScan checks the busy and outDirty sets after
// every step of whole runs, and StoreSweep's cursor predicate (storeStop)
// against a full evaluation of every client, across the runs of one reused
// runner, on every configuration of TestStoreAllocsPerStep
// (piggybacking, open loop, coalescing, fast reads, faults, recovery) plus
// three more: a whole-group crash, whose shard drops out of the stop
// predicate while its operations stay queued and outstanding; coalescing
// without piggybacking, which parks per-shard accumulators across steps; and
// a recovering client, whose fresh automaton sheds its script.
func TestStoreBookkeepingMatchesScan(t *testing.T) {
	crashShard := dist.NewFailurePattern(5)
	crashShard.CrashAt(4, 40) // p4 is shard 3's whole group
	recoverClient := dist.NewFailurePattern(5)
	recoverClient.CrashAt(2, 30)
	recoverClient.RecoverAt(2, 80)
	faults := &sim.FaultPlan{Seed: 33, Loss: 0.05, Dup: 0.05, MaxDelay: 2}
	cases := append(storeHotpathCases(),
		storeHotpathCase{
			name: "crashshard",
			cfg:  StoreConfig{Keys: 12, Shards: 4, Window: 8, Piggyback: true, AdaptiveWindow: true},
			pat:  crashShard,
		},
		storeHotpathCase{
			name: "coalesce-batched",
			cfg:  StoreConfig{Keys: 12, Shards: 4, Window: 8, CoalesceDelay: 2, Retransmit: true, RTO: 16},
			fp:   faults,
		},
		storeHotpathCase{
			name: "recovering-client",
			cfg:  StoreConfig{Keys: 12, Shards: 4, Window: 8, Retransmit: true, RTO: 16},
			fp:   faults,
			pat:  recoverClient,
		})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pat := tc.pat
			if pat == nil {
				pat = dist.NewFailurePattern(5)
			}
			cfg := storeHotpathConfig(t, tc.cfg, 24, tc.fp, pat)
			m, err := tc.cfg.ShardMap(pat.N())
			if err != nil {
				t.Fatal(err)
			}
			clients, avail := dist.RangeSet(1, 3).Intersect(pat.Correct()), m.Available(pat.Correct())
			done := cfg.StopWhen
			cursor := storeStop(clients, storeDoneSets(clients, avail, nil))
			var bad error
			cfg.StopWhen = func(sn *sim.Snapshot) bool {
				if bad == nil {
					bad = checkStoreBookkeeping(sn, pat.N())
				}
				want := done(sn)
				if got := cursor(sn); bad == nil && got != want {
					bad = fmt.Errorf("t=%d: storeStop = %v, every client evaluated says %v", int64(sn.Now()), got, want)
				}
				return bad != nil || want
			}
			r, err := sim.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 4; seed++ {
				res, err := r.Reset(seed).Run()
				if err != nil {
					t.Fatal(err)
				}
				if bad != nil {
					t.Fatalf("seed %d: %v", seed, bad)
				}
				if res.Reason != sim.ReasonStopCond {
					t.Fatalf("seed %d did not complete: %s", seed, res.Reason)
				}
			}
		})
	}
}
