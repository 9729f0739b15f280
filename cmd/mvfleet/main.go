// mvfleet runs a supervised fleet of multiverse machines: a sharded,
// request-serving service swept by config-flip commit storms, with
// per-shard supervisors restarting chaos-killed machines from their
// periodic snapshots and live-migrating machines between shards.
//
// Usage:
//
//	mvfleet [-shards n] [-machines n] [-rounds n] [-seed s]
//	        [-storm every] [-chaos] [-kill-rate r] [-fault-points n]
//	        [-mode parked|stop-machine|text-poke] [-active-storms]
//	        [-metrics-addr :9090] [-metrics-out file] [-json] [-v]
//	        [-cpuprofile file] [-memprofile file]
//
// Every run is bit-reproducible for a given seed: the load, the
// storms, the kill schedule and the migrations all derive from it.
// -cpuprofile and -memprofile write runtime/pprof profiles of building
// and running the fleet (`go tool pprof`); they change no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/fleet"
)

var (
	shards      = flag.Int("shards", 4, "host shards (one supervisor goroutine each)")
	machines    = flag.Int("machines", 64, "machines in the fleet")
	rounds      = flag.Int("rounds", 24, "global rounds to run")
	seed        = flag.Int64("seed", 1, "deterministic seed for load, storms and chaos")
	storm       = flag.Int("storm", 3, "rounds between fleet-wide config-flip storms")
	chaosOn     = flag.Bool("chaos", false, "arm the chaos kill schedule and fault plans")
	killRate    = flag.Int("kill-rate", 30, "per-(machine,round) kill probability out of 1000 (with -chaos)")
	faultPts    = flag.Int("fault-points", 0, "per-machine commit fault points (with -chaos)")
	mode        = flag.String("mode", "stop-machine", "commit mode: parked, stop-machine or text-poke")
	activeStorm = flag.Bool("active-storms", false,
		"park each machine inside a multiversed function before every storm (exercises the retry → OSR → park ladder)")
	metricsAddr = flag.String("metrics-addr", "",
		"serve /metrics (Prometheus) and /metrics.json on this address after the run")
	metricsOut = flag.String("metrics-out", "", "write a JSON metrics snapshot to this file")
	jsonOut    = flag.Bool("json", false, "print the full result as JSON")
	verbose    = flag.Bool("v", false, "print per-machine results")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of building and running the fleet to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file after the run")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mvfleet:", err)
		os.Exit(1)
	}
}

func run() error {
	var cm core.CommitMode
	switch *mode {
	case "parked":
		cm = core.ModeParked
	case "stop-machine":
		cm = core.ModeStopMachine
	case "text-poke":
		cm = core.ModeTextPoke
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}

	cfg := fleet.Config{
		Seed:         *seed,
		Shards:       *shards,
		Machines:     *machines,
		Rounds:       *rounds,
		StormEvery:   *storm,
		Mode:         cm,
		ActiveStorms: *activeStorm,
		Chaos:        *chaosOn,
		KillRate:     *killRate,
		FaultPoints:  *faultPts,
	}
	fl, res, err := runFleet(cfg)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		printSummary(res)
	}
	for _, e := range fl.MemberErrors() {
		fmt.Fprintln(os.Stderr, "mvfleet: machine error:", e)
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := fl.Registry().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := fl.Registry().WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := fl.Registry().WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		fmt.Fprintf(os.Stderr, "mvfleet: serving metrics on %s (ctrl-c to stop)\n", ln.Addr())
		return http.Serve(ln, mux)
	}

	if res.Failed > 0 {
		return fmt.Errorf("%d machines failed permanently", res.Failed)
	}
	if res.Served != res.Scheduled {
		return fmt.Errorf("request loss: served %d of %d scheduled", res.Served, res.Scheduled)
	}
	return nil
}

// runFleet builds and runs the fleet, under the CPU profiler when
// -cpuprofile is set, and writes a heap profile after the run when
// -memprofile is set.
func runFleet(cfg fleet.Config) (fl *fleet.Fleet, res *fleet.Result, err error) {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return nil, nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, nil, err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if fl, err = fleet.New(cfg); err != nil {
		return nil, nil, err
	}
	if res, err = fl.Run(); err != nil {
		return nil, nil, err
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return nil, nil, err
		}
		runtime.GC() // the profile reflects the heap as the run leaves it
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return fl, res, nil
}

func printSummary(res *fleet.Result) {
	fmt.Printf("fleet: %d machines / %d shards, %d requests served of %d scheduled (%d incl. replays)\n",
		len(res.Machines), len(res.Shards), res.Served, res.Scheduled, res.Requests)
	fmt.Printf("chaos: %d kills, %d restarts, %d migrations, %d parked flips, %d osr commits (%d frames), %d commit aborts, %d failed\n",
		res.Kills, res.Restarts, res.Migrations, res.ParkedFlips, res.OSRCommits, res.OSRTransfers, res.CommitAborts, res.Failed)
	fmt.Printf("commit latency cycles: p50=%d p99=%d p999=%d; rendezvous p99=%d\n",
		res.CommitP50, res.CommitP99, res.CommitP999, res.RendezvousP99)
	for _, sh := range res.Shards {
		fmt.Printf("  shard %d: %d machines, %d req, %.2f req/kcycle, %d restarts, %d in / %d out\n",
			sh.Shard, sh.Machines, sh.Requests, sh.Throughput, sh.Restarts, sh.MigrIn, sh.MigrOut)
	}
	if res.HostSeconds > 0 {
		fmt.Printf("host: %.3fs\n", res.HostSeconds)
	}
	if *verbose {
		for _, m := range res.Machines {
			fmt.Printf("  machine %3d shard %d %-8s req=%-6d kills=%d restarts=%d parked=%v digest=%.16s\n",
				m.ID, m.Shard, m.State, m.Requests, m.Kills, m.Restarts, m.Parked, m.Digest)
		}
	}
}
