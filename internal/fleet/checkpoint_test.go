package fleet

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/snapshot"
)

func liveDigest(t *testing.T, m *machine.Machine, rt *core.Runtime) string {
	t.Helper()
	snap, err := snapshot.Capture(m, rt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snapshot.Digest(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// soloMember builds a one-machine, one-shard fleet without chaos or
// migration, checkpointing every 4 rounds, and returns its member.
func soloMember(t *testing.T) *member {
	t.Helper()
	fl, err := New(Config{Seed: 21, Shards: 1, Machines: 1, Rounds: 8, SnapEvery: 4, MigrateEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return fl.shards[0].members[0]
}

// TestCheckpointBacksRepeatedRestores: checkpoints are in-memory
// snapshots whose pages the restored machines share copy-on-write. A
// member that goes down twice between two checkpoints restores twice
// from the same snapshot; both replays must land on the uninterrupted
// run's digest and leave the checkpoint's encoding untouched.
func TestCheckpointBacksRepeatedRestores(t *testing.T) {
	ref := soloMember(t)
	ref.advanceTo(7)
	want := liveDigest(t, ref.m, ref.rt)

	mb := soloMember(t)
	mb.advanceTo(4)
	ck := mb.ckpt
	if ck == nil || ck.round != 4 {
		t.Fatalf("no round-4 checkpoint: %+v", ck)
	}
	enc := ck.snap.Encode()

	mb.advanceTo(6)
	for i := 1; i <= 2; i++ {
		mb.die()
		if !mb.tryRestart() || mb.restarts != i || mb.nextRound != 5 {
			t.Fatalf("down #%d: restart failed (state %s, %d restarts, next round %d)",
				i, mb.state, mb.restarts, mb.nextRound)
		}
		mb.advanceTo(7)
		if mb.ckpt != ck {
			t.Fatalf("down #%d: checkpoint replaced before round 8", i)
		}
		if got := liveDigest(t, mb.m, mb.rt); got != want {
			t.Fatalf("replay #%d digest %s, uninterrupted run %s", i, got, want)
		}
	}
	if !bytes.Equal(ck.snap.Encode(), enc) {
		t.Fatal("restores and replays changed the checkpoint they were restored from")
	}

	// The wire round trip restores the same machine as the in-memory
	// snapshot, both by Apply and through the member's restore path.
	decoded, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	applied := func(s *snapshot.Snapshot) string {
		m, err := machine.New(mb.fl.img)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := core.NewRuntime(mb.fl.img, core.Platform{M: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Apply(s, m, rt); err != nil {
			t.Fatal(err)
		}
		return liveDigest(t, m, rt)
	}
	if a, b := applied(ck.snap), applied(decoded); a != b {
		t.Fatalf("Apply(ckpt) digest %s, Apply(Decode(Encode(ckpt))) %s", a, b)
	}
	mb.ckpt = &checkpoint{round: ck.round, snap: decoded, plan: ck.plan, parked: ck.parked}
	mb.die()
	if !mb.tryRestart() {
		t.Fatalf("restart from the decoded checkpoint failed: %v", mb.err)
	}
	mb.advanceTo(7)
	if got := liveDigest(t, mb.m, mb.rt); got != want {
		t.Fatalf("replay from the decoded checkpoint: digest %s, want %s", got, want)
	}
}

// TestReportDigestsMatchSerialCapture: the final report captures and
// digests each shard's members on the shard goroutines with the
// streaming digest. Every reported digest must equal a serial capture
// of the same member digested through its encoding.
func TestReportDigestsMatchSerialCapture(t *testing.T) {
	fl, err := New(Config{Seed: 5, Shards: 3, Machines: 12, Rounds: 10, Chaos: true, KillRate: 70, FaultPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills == 0 {
		t.Fatal("chaos run scheduled no kills; raise KillRate")
	}
	byID := map[int]*member{}
	for _, sh := range fl.shards {
		for _, mb := range sh.members {
			byID[mb.id] = mb
		}
	}
	checked := 0
	for _, mr := range res.Machines {
		mb := byID[mr.ID]
		if mb == nil || mb.m == nil || mb.state == stateFailed {
			if mr.Digest != "" {
				t.Errorf("machine %d has no live machine, or failed, yet reports digest %s", mr.ID, mr.Digest)
			}
			continue
		}
		if want := liveDigest(t, mb.m, mb.rt); mr.Digest != want {
			t.Errorf("machine %d (shard %d): reported digest %s, serial capture %s", mr.ID, mr.Shard, mr.Digest, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no machine survived to be checked")
	}
}
