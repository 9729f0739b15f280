package fleet

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkFleetRun measures one complete chaos fleet — boot, rounds
// with storms, kills, restores and migrations, drain and the final
// report — on 16 machines over 2 shards. Run it with -benchmem: the
// allocation figures show what guest execution, checkpoints and
// decoding cost per fleet.
func BenchmarkFleetRun(b *testing.B) {
	cfg := Config{
		Seed:        1,
		Shards:      2,
		Machines:    16,
		Rounds:      24,
		StormEvery:  3,
		Mode:        core.ModeStopMachine,
		Chaos:       true,
		KillRate:    60,
		FaultPoints: 4,
	}
	var requests uint64
	for i := 0; i < b.N; i++ {
		fl, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := fl.Run()
		if err != nil {
			b.Fatal(err)
		}
		requests += res.Requests
	}
	b.ReportMetric(float64(requests)/b.Elapsed().Seconds(), "req/s")
}
