package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/agreement"
	"repro/internal/consensus"
	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/register"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// workload is one named benchmark input. Its shape (system size, failure
// pattern, adversary, store configuration) is fixed; the workload seed only
// changes the generated scripts (store) or the proposal assignment
// (consensus).
type workload struct {
	name string
	// batch is the number of consecutive sweep seeds the deterministic
	// counts (steps, messages, latency histogram) are taken over. It is
	// fixed per workload, so the counts depend on the seeds alone, never on
	// how many rounds fit into the measuring window.
	batch int64
	// chunk is the number of seeds one measured round sweeps; rounds cycle
	// through the batch chunk by chunk. It divides batch, and is smaller
	// than batch where a whole batch would take seconds, so a run still has
	// enough rounds for a steady median.
	chunk int64
	store *storeShape // nil for the consensus workload
}

// storeShape fixes a store workload apart from its seed.
type storeShape struct {
	n, clients, ops  int
	cfg              register.StoreConfig
	writeRatio, skew float64
	crash, recov     map[dist.ProcID]dist.Time
	// faults builds the adversary; it may depend on the shard layout.
	faults func(m *register.ShardMap) *sim.FaultPlan
}

// sharedAdversary is the E35–E37 network: 5% loss, 5% duplication, up to 2
// ticks of extra delay, and a one-way cut {p1,p3}↛{p2} during [30, 150).
func sharedAdversary(*register.ShardMap) *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 2,
		Partitions: []dist.Partition{{
			A: dist.NewProcSet(1, 3), B: dist.NewProcSet(2), From: 30, Until: 150, OneWay: true,
		}},
	}
}

// consensusN, consensusCrashP, consensusCrashT and consensusRecover fix the
// E37 pattern: p5 crashes at 40 and recovers at 200.
const (
	consensusN       = 6
	consensusCrashP  = 5
	consensusCrashT  = 40
	consensusRecover = 200
)

var workloads = []*workload{
	{
		name:  "store-read",
		batch: 300,
		chunk: 300,
		store: &storeShape{
			n: 5, clients: 5, ops: 32,
			cfg: register.StoreConfig{
				Keys: 64, Shards: 4, Window: 8, Piggyback: true, FastReads: true,
			},
			writeRatio: 0.1, skew: 1.2,
		},
	},
	{
		name:  "store-write-faults",
		batch: 600,
		chunk: 150,
		store: &storeShape{
			n: 6, clients: 3, ops: 40,
			cfg: register.StoreConfig{
				Keys: 12, Shards: 3, Window: 4, Piggyback: true,
				Retransmit: true, RTO: 16,
				OpenLoop: true, ArrivalGap: 6, ArrivalJitter: true,
			},
			writeRatio: 0.9, skew: 1.3,
			crash:  map[dist.ProcID]dist.Time{5: 40},
			recov:  map[dist.ProcID]dist.Time{5: 120},
			faults: sharedAdversary,
		},
	},
	{
		name:  "store-scale",
		batch: 64,
		chunk: 16,
		store: &storeShape{
			n: 256, clients: 32, ops: 3,
			cfg: register.StoreConfig{
				Keys: 64, Shards: 32, Window: 2,
				AdaptiveWindow: true, MaxWindow: 6,
				Retransmit: true, RTO: 24, MaxRTO: 96,
			},
			writeRatio: register.DefaultWriteRatio, skew: 1.2,
			faults: func(m *register.ShardMap) *sim.FaultPlan {
				return &sim.FaultPlan{
					Seed: 7, Loss: 0.03, Dup: 0.03, MaxDelay: 3,
					Partitions: []dist.Partition{{A: m.Group(0), B: m.Group(1), From: 60, Until: 300}},
				}
			},
		},
	},
	{
		name:  "consensus-faults",
		batch: 12000,
		chunk: 3000,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// instance is a workload built for one workload seed: the generated inputs
// plus everything a sweep constructs before its first seed.
type instance struct {
	w       *workload
	pattern *dist.FailurePattern
	faults  *sim.FaultPlan

	// Store workloads.
	scripts  [][]register.KeyedOp
	sweepCfg register.StoreSweepConfig
	shardMap *register.ShardMap
	clients  dist.ProcSet // correct members of S
	avail    register.ShardSet
	masks    []register.ShardSet

	// Consensus workload.
	consCfg   consensus.SweepConfig
	proposals []agreement.Value
	target    dist.ProcSet // correct ∪ recovering: every one must decide

	// opsPerRun counts the verified operations of one passing run: store ops
	// on a correct client's script bound for a reachable, available shard,
	// or deciding target processes.
	opsPerRun int64

	genTime, buildTime time.Duration
}

// build generates the workload's inputs from wseed, then constructs what a
// sweep builds before its first seed — pattern, adversary, program, oracle
// and runner — timing generation and construction apart.
func (w *workload) build(wseed int64) (*instance, error) {
	in := &instance{w: w}
	t0 := time.Now()
	construct := in.constructConsensus
	if w.store != nil {
		s := dist.RangeSet(1, dist.ProcID(w.store.clients))
		scripts, err := register.GenerateStoreWorkload(register.StoreWorkloadConfig{
			N: w.store.n, S: s, Keys: w.store.cfg.Keys, Shards: w.store.cfg.Shards, OpsPerClient: w.store.ops,
			WriteRatio: w.store.writeRatio, Skew: w.store.skew, Seed: wseed,
		})
		if err != nil {
			return nil, err
		}
		in.scripts = scripts
		construct = in.constructStore
	} else {
		// The seed permutes which process proposes which value.
		perm := rand.New(rand.NewSource(wseed)).Perm(consensusN)
		in.proposals = make([]agreement.Value, consensusN)
		for i, j := range perm {
			in.proposals[i] = agreement.Value(101 * (j + 1))
		}
	}
	t1 := time.Now()
	if err := construct(wseed); err != nil {
		return nil, err
	}
	simCfg, err := in.simConfig()
	if err != nil {
		return nil, err
	}
	if _, err := sim.NewRunner(simCfg); err != nil {
		return nil, err
	}
	in.genTime, in.buildTime = t1.Sub(t0), time.Since(t1)
	return in, nil
}

func (in *instance) constructStore(wseed int64) error {
	sh := in.w.store
	f := dist.NewFailurePattern(sh.n)
	for p, t := range sh.crash {
		f.CrashAt(p, t)
	}
	for p, t := range sh.recov {
		f.RecoverAt(p, t)
	}
	cfg := sh.cfg
	if cfg.OpenLoop {
		cfg.ArrivalSeed = wseed // decorrelate arrivals from the scheduler seeds
	}
	m, err := cfg.ShardMap(sh.n)
	if err != nil {
		return err
	}
	if sh.faults != nil {
		in.faults = sh.faults(m)
	}
	s := dist.RangeSet(1, dist.ProcID(sh.clients))
	in.pattern, in.shardMap = f, m
	in.sweepCfg = register.StoreSweepConfig{
		Pattern: f, S: s, Store: cfg, Scripts: in.scripts, Faults: in.faults, Workers: 1,
	}
	correct := f.Correct()
	in.clients = s.Intersect(correct)
	in.avail = m.Available(correct)
	in.masks = register.StoreReach(m, in.faults, correct, in.clients, dist.Time(in.sweepCfg.EffectiveMaxSteps()))
	for _, p := range in.clients.Members() {
		reach := in.reach(p)
		for _, op := range in.scripts[p-1] {
			if reach.Has(m.Shard(op.Key)) {
				in.opsPerRun++
			}
		}
	}
	return nil
}

func (in *instance) constructConsensus(int64) error {
	f := dist.NewFailurePattern(consensusN)
	f.CrashAt(consensusCrashP, consensusCrashT)
	f.RecoverAt(consensusCrashP, consensusRecover)
	in.pattern = f
	in.faults = sharedAdversary(nil)
	in.target = f.Correct().Union(f.Recovering())
	in.opsPerRun = int64(in.target.Len())
	in.consCfg = consensus.SweepConfig{Pattern: f, Proposals: in.proposals, Faults: in.faults, Workers: 1}
	return nil
}

// reach is the set of shards client p is guaranteed to finish work on.
func (in *instance) reach(p dist.ProcID) register.ShardSet {
	if in.masks == nil {
		return in.avail
	}
	return in.avail.Intersect(in.masks[p])
}

// sweep runs the user-facing sweep entry point, with its built-in
// verification, over seeds [start, start+seeds).
func (in *instance) sweep(start, seeds int64) (*sweep.Result, error) {
	if in.w.store != nil {
		cfg := in.sweepCfg
		cfg.SeedStart, cfg.Seeds = start, seeds
		return register.StoreSweep(cfg)
	}
	cfg := in.consCfg
	cfg.SeedStart, cfg.Seeds = start, seeds
	return consensus.Sweep(cfg)
}

// simConfig returns a fresh per-runner configuration equal to the one the
// sweep entry point builds for each worker, with a stop predicate that also
// sees through the traced path's automaton wrappers.
func (in *instance) simConfig() (sim.Config, error) {
	if in.w.store == nil {
		return sim.Config{
			Pattern:      in.pattern,
			History:      consensus.NewOracle(in.pattern, 25), // consensus.Sweep's default stabilization
			Program:      consensus.Program(in.proposals),
			MaxSteps:     200_000, // consensus.Sweep's default; every partition heals far inside it
			Faults:       in.faults,
			StopWhen:     in.consensusDone,
			DisableTrace: true,
		}, nil
	}
	cfg := in.sweepCfg
	prog, err := register.StoreProgram(in.pattern.N(), cfg.S, cfg.Store, cfg.Scripts)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Pattern:  in.pattern,
		History:  fd.NewSigmaS(in.pattern, cfg.S, 20), // StoreSweep's default stabilization
		Program:  prog,
		MaxSteps: cfg.EffectiveMaxSteps(),
		StopWhen: in.storeDone,
		Faults:   in.faults,
	}, nil
}

// storeDone is StoreSweep's stop predicate: every correct client finished
// all work on the shards it can reach.
func (in *instance) storeDone(sn *sim.Snapshot) bool {
	return in.clients.AllSatisfy(func(p dist.ProcID) bool {
		node, ok := unwrap(sn.Automaton(p)).(*register.StoreNode)
		return ok && node.DoneOn(in.reach(p))
	})
}

// consensusDone is consensus.Sweep's stop predicate: every correct and every
// recovered process decided.
func (in *instance) consensusDone(sn *sim.Snapshot) bool {
	return in.target.AllSatisfy(func(p dist.ProcID) bool {
		_, ok := sn.Decided(p)
		return ok
	})
}
