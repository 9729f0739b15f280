package fleet

import (
	"repro/internal/cpu"
	"repro/internal/metrics"
)

// shard is one host goroutine's worth of fleet: a set of members, a
// simulated-cycle ledger (the clock restart backoff waits on), and a
// private metrics registry the fleet root merges under a shard label.
//
// A shard's state is only ever touched by the goroutine executing its
// current round; the coordinator's round barrier is the only
// cross-shard synchronisation, so there are no locks in the data
// path and per-shard execution is bit-reproducible.
type shard struct {
	idx     int
	fl      *Fleet
	members []*member

	// cycles is the shard's simulated-cycle ledger: the sum of cycles
	// its members' CPUs have consumed, plus a per-round baseline tick
	// so time still passes on a shard whose only member is down.
	cycles uint64

	// killsSinceEpoch feeds the migration policy: the coordinator
	// evacuates a member away from the shard taking the most kills.
	killsSinceEpoch int

	// code is the decoded-code store every member machine of this
	// shard interns its icache lines in, so a text page is decoded
	// once per shard rather than once per boot, restore and refill. A
	// migrant re-incarnates on its destination and uses that shard's.
	code *cpu.Code

	reg *metrics.Registry

	cRequests      *metrics.Counter
	cBatches       *metrics.Counter
	cStormFlips    *metrics.Counter
	cCommitAborts  *metrics.Counter
	cCommitRetries *metrics.Counter
	cParkedFlips   *metrics.Counter
	cOSRCommits    *metrics.Counter
	cOSRTransfers  *metrics.Counter
	cKills         *metrics.Counter
	cFaults        *metrics.Counter
	cRestarts      *metrics.Counter
	cSnapshots     *metrics.Counter
	cMigrationsIn  *metrics.Counter
	cMigrationsOut *metrics.Counter
	gDegraded      *metrics.Gauge
	gMachines      *metrics.Gauge
	hCommit        *metrics.Histogram
	hRendezvous    *metrics.Histogram
}

// baselineTick is the simulated time one fleet round represents on a
// shard independent of guest execution: it keeps the restart-backoff
// clock moving even when every member of the shard is down.
const baselineTick = 512

func newShard(idx int, fl *Fleet) *shard {
	sh := &shard{idx: idx, fl: fl, code: cpu.NewCode(), reg: metrics.New()}
	sh.cRequests = sh.reg.Counter("fleet_requests_total", "requests served (including replayed rounds)")
	sh.cBatches = sh.reg.Counter("fleet_batches_total", "load-generator batches completed")
	sh.cStormFlips = sh.reg.Counter("fleet_storm_flips_total", "config-flip storms attempted on a machine")
	sh.cCommitAborts = sh.reg.Counter("fleet_commit_aborts_total", "commits refused or rolled back during storms")
	sh.cCommitRetries = sh.reg.Counter("fleet_commit_retries_total", "storm commits retried after backoff")
	sh.cParkedFlips = sh.reg.Counter("fleet_parked_flips_total", "storm flips parked after retry exhaustion")
	sh.cOSRCommits = sh.reg.Counter("fleet_osr_commits_total", "storm commits landed via on-stack-replacement escalation")
	sh.cOSRTransfers = sh.reg.Counter("fleet_osr_transfers_total", "live frames transferred into new variants during storms")
	sh.cKills = sh.reg.Counter("fleet_kills_total", "chaos machine kills taken")
	sh.cFaults = sh.reg.Counter("fleet_faults_total", "machine faults (wedges, failed probes)")
	sh.cRestarts = sh.reg.Counter("fleet_restarts_total", "machines restarted from snapshot")
	sh.cSnapshots = sh.reg.Counter("fleet_snapshots_total", "periodic checkpoints captured")
	sh.cMigrationsIn = sh.reg.Counter("fleet_migrations_in_total", "machines migrated into this shard")
	sh.cMigrationsOut = sh.reg.Counter("fleet_migrations_out_total", "machines migrated out of this shard")
	sh.gDegraded = sh.reg.Gauge("fleet_degraded_machines", "machines serving a parked (old-variant) config")
	sh.gMachines = sh.reg.Gauge("fleet_machines", "machines currently homed on this shard")
	sh.hCommit = sh.reg.Histogram("fleet_commit_latency_cycles", "modeled commit latency per storm attempt")
	sh.hRendezvous = sh.reg.Histogram("fleet_rendezvous_latency_cycles", "stop-machine rendezvous latency")
	return sh
}

// runRound advances every member of the shard to global round r and
// refreshes the shard gauges. Members execute in id order — member
// order is part of the deterministic contract, so migration inserts
// keep the slice sorted.
func (sh *shard) runRound(r int) {
	sh.cycles += baselineTick
	for _, mb := range sh.members {
		mb.advanceTo(r)
	}
	sh.refreshGauges()
}

func (sh *shard) refreshGauges() {
	degraded := 0
	for _, mb := range sh.members {
		if mb.parked && mb.state != stateFailed {
			degraded++
		}
	}
	sh.gDegraded.Set(float64(degraded))
	sh.gMachines.Set(float64(len(sh.members)))
}

// take removes member mb from the shard; insert homes it, keeping the
// members slice in id order.
func (sh *shard) take(mb *member) {
	for i, m := range sh.members {
		if m == mb {
			sh.members = append(sh.members[:i], sh.members[i+1:]...)
			return
		}
	}
}

func (sh *shard) insert(mb *member) {
	i := len(sh.members)
	for j, m := range sh.members {
		if m.id > mb.id {
			i = j
			break
		}
	}
	sh.members = append(sh.members, nil)
	copy(sh.members[i+1:], sh.members[i:])
	sh.members[i] = mb
	mb.sh = sh
}
