package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
)

// fleetConfig is the fleet-chaos workload: chaos armed as in the
// repository's fleet smoke run (kills at 60/1000 per machine-round
// plus four commit fault points per machine), two shards so the two
// shard goroutines match a 2-CPU host, and 128 machines over 24
// rounds (~31k scheduled requests) so one run is long enough to time
// and short enough to repeat.
func fleetConfig(fleetSeed int64) fleet.Config {
	return fleet.Config{
		Seed:        fleetSeed,
		Shards:      2,
		Machines:    128,
		Rounds:      24,
		StormEvery:  3,
		Mode:        core.ModeStopMachine,
		Chaos:       true,
		KillRate:    60,
		FaultPoints: 4,
	}
}

// fleetsPerSeed is how many fleet seeds one benchmark seed stands for.
// Where kills land changes how much work is replayed, and so the
// throughput of a single fleet by several percent; cycling through a
// few fleets per run keeps that from deciding the result.
const fleetsPerSeed = 4

// fleetSeeds derives the fleet seeds of a benchmark seed; different
// benchmark seeds share none.
func fleetSeeds(seed int64) []int64 {
	out := make([]int64, fleetsPerSeed)
	for i := range out {
		out[i] = seed*fleetsPerSeed + int64(i)
	}
	return out
}

func fleetInputs(seed int64) map[string]any {
	c := fleetConfig(seed)
	c.Defaults()
	return map[string]any{
		"fleet_seeds": fleetSeeds(seed), "shards": c.Shards, "machines": c.Machines, "rounds": c.Rounds,
		"storm_every": c.StormEvery, "snap_every": c.SnapEvery, "migrate_every": c.MigrateEvery,
		"kill_rate_per_1000": c.KillRate, "fault_points": c.FaultPoints,
		"batch_min": c.BatchMin, "batch_max": c.BatchMax,
		"load": "deterministic batch schedule replayed as fast as the host goes (closed loop)",
	}
}

// checkFleet lists every way res falls short of a correct chaos run:
// every scheduled request served, no machine lost, the chaos actually
// exercised (kills, restarts, aborted commits) and the deterministic
// endpoint equal to the reference run on the same seed.
func checkFleet(res *fleet.Result, wantFingerprint string) []string {
	var bad []string
	if res.Served != res.Scheduled {
		bad = append(bad, fmt.Sprintf("served %d of %d scheduled requests", res.Served, res.Scheduled))
	}
	if res.Failed != 0 {
		bad = append(bad, fmt.Sprintf("%d machines failed permanently", res.Failed))
	}
	if res.Kills == 0 || res.Restarts == 0 || res.CommitAborts == 0 {
		bad = append(bad, fmt.Sprintf("chaos not exercised: kills=%d restarts=%d commit_aborts=%d",
			res.Kills, res.Restarts, res.CommitAborts))
	}
	if got := res.Fingerprint(); got != wantFingerprint {
		bad = append(bad, "fingerprint differs from the reference run on the same seed")
	}
	return bad
}

// fleetFailed counts failed operations: scheduled requests left
// unserved, plus one per machine that failed permanently.
func fleetFailed(res *fleet.Result) int {
	n := res.Failed
	if res.Served < res.Scheduled {
		n += int(res.Scheduled - res.Served)
	}
	return n
}

func runFleet(r *runner) {
	o := r.out
	seeds := fleetSeeds(r.seed)

	// Reference runs: their fingerprints are what every timed run on
	// the same fleet seed must reproduce. They also warm the heap and
	// code paths, and are checked like the timed runs.
	want := make([]string, len(seeds))
	for i, s := range seeds {
		err := r.tr.do("fleet.reference", func() error {
			fl, err := fleet.New(fleetConfig(s))
			if err != nil {
				return err
			}
			res, err := fl.Run()
			if err != nil {
				return err
			}
			want[i] = res.Fingerprint()
			o.problems = append(o.problems, checkFleet(res, want[i])...)
			return nil
		})
		if err != nil {
			o.fail("fleet seed %d reference run: %v", s, err)
			return
		}
	}

	// Whole cycles over the fleet seeds, so every seed weighs the same.
	var ms runtime.MemStats
	for r.more() {
		for i, s := range seeds {
			if err := fleetIter(r, fleetConfig(s), want[i], &ms); err != nil {
				o.fail("fleet seed %d: %v", s, err)
				return
			}
		}
	}
	// The behaviour counters are exact per fleet seed, so over whole
	// cycles their mean per run is exact per benchmark seed; a median
	// would pick one fleet's value.
	for _, n := range []string{"fleet.kills", "fleet.restarts", "fleet.snapshots", "fleet.migrations",
		"fleet.commit_aborts", "fleet.commit_retries", "fleet.parked_flips"} {
		o.layer[n] = mean(o.samples[n])
	}
	o.report("req_per_s", o.rate, "1/s")
	o.report("fleet_run_ms", o.opMS, "ms")
	o.report("heap_mb", o.heapMB, "MB")
	o.report("setup_s", o.setupS, "s")
}

// fleetIter builds one fleet (set-up), runs it (the timed phase) and
// checks the result.
func fleetIter(r *runner, cfg fleet.Config, want string, ms *runtime.MemStats) error {
	o := r.out
	r.tr.nextRun()
	base := liveHeap(ms) // the previous fleet is garbage; do not time its collection
	var fl *fleet.Fleet
	t0 := time.Now()
	err := r.tr.inPhase("build", func() error {
		return r.tr.do("fleet.New", func() (err error) {
			fl, err = fleet.New(cfg)
			return err
		})
	})
	setup := time.Since(t0)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(ms)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC

	var res *fleet.Result
	t1 := time.Now()
	err = r.tr.inPhase("run", func() error {
		return r.tr.do("fleet.Run", func() (err error) {
			res, err = fl.Run()
			return err
		})
	})
	elapsed := time.Since(t1)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(ms)
	alloc, gcs := ms.TotalAlloc-alloc0, ms.NumGC-gc0

	var bad []string
	_ = r.tr.do("fleet.Fingerprint", func() error {
		bad = checkFleet(res, want)
		return nil
	})
	o.problems = append(o.problems, bad...)
	o.attempted += int(res.Scheduled)
	o.failed += fleetFailed(res)

	live := liveHeap(ms)
	runtime.KeepAlive(fl)

	o.setupS = append(o.setupS, setup.Seconds())
	o.opMS = append(o.opMS, ms1(elapsed))
	o.rate = append(o.rate, float64(res.Served)/elapsed.Seconds())
	o.heapMB = append(o.heapMB, heapMB(live, base))
	o.sample("fleet.alloc_kb_per_req", float64(alloc)/1024/float64(res.Served))
	o.sample("fleet.gc_count", float64(gcs))
	if res.Requests > 0 {
		o.sample("fleet.replay_ratio", float64(res.Requests-res.Served)/float64(res.Requests))
	}
	snap := fl.Registry().Snapshot()
	o.sample("fleet.kills", float64(res.Kills))
	o.sample("fleet.restarts", float64(res.Restarts))
	o.sample("fleet.snapshots", counterSum(snap, "fleet_snapshots_total"))
	o.sample("fleet.migrations", float64(res.Migrations))
	o.sample("fleet.commit_aborts", float64(res.CommitAborts))
	o.sample("fleet.commit_retries", counterSum(snap, "fleet_commit_retries_total"))
	o.sample("fleet.parked_flips", float64(res.ParkedFlips))
	return nil
}

// counterSum totals a counter family over every series of a snapshot.
// The fleet root only mounts the shard registries, so their counters
// are visible in a snapshot but not to the root's CounterTotal.
func counterSum(snap metrics.Snapshot, name string) float64 {
	var total float64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Value != nil {
				total += *s.Value
			}
		}
	}
	return total
}

// ms1 converts a duration to float milliseconds.
func ms1(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
