package scanner

import (
	"context"
	"testing"

	"geoblock/internal/telemetry"
)

// shardCollect is a Collect that also records shard-completion events —
// the journaling consumer's view of a scan.
type shardCollect struct {
	Collect
	Dones []ShardDone
}

func (c *shardCollect) EmitShardDone(d ShardDone) { c.Dones = append(c.Dones, d) }

// TestResumeValidation: malformed Resume prefixes are caller bugs,
// rejected before any fetching.
func TestResumeValidation(t *testing.T) {
	domains, countries := smallInputs(8)
	tasks := CrossProduct(len(domains), len(countries))
	for _, r := range []*Resume{
		{Shards: -1},
		{Shards: 10000},
		{Shards: 1, Lost: nil},
		{Shards: 0, Lost: []OutageReason{OutageNone}},
	} {
		cfg := testConfig()
		cfg.Resume = r
		err := Run(context.Background(), testNet, domains, countries, tasks, cfg, &Collect{})
		if err == nil {
			t.Fatalf("Resume %+v accepted", r)
		}
	}
}

// TestShardDoneEmission: a ShardSink sees one event per shard, in
// canonical order, whose counts tile the sample stream exactly, each
// carrying the shard's metrics — and the sink changes nothing else: the
// registry snapshots to the same deterministic bytes as a run without
// one.
func TestShardDoneEmission(t *testing.T) {
	domains, countries := smallInputs(40)
	tasks := skewedTasks(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 8

	plainReg := telemetry.New()
	plainCfg := cfg
	plainCfg.Metrics = plainReg
	var plain Collect
	if err := Run(context.Background(), testNet, domains, countries, tasks, plainCfg, &plain); err != nil {
		t.Fatal(err)
	}

	shardReg := telemetry.New()
	shardCfg := cfg
	shardCfg.Metrics = shardReg
	var sc shardCollect
	if err := Run(context.Background(), testNet, domains, countries, tasks, shardCfg, &sc); err != nil {
		t.Fatal(err)
	}

	if len(sc.Samples) != len(plain.Samples) {
		t.Fatalf("shard-sink run emitted %d samples, plain %d", len(sc.Samples), len(plain.Samples))
	}
	for i := range sc.Samples {
		if sc.Samples[i] != plain.Samples[i] {
			t.Fatalf("sample %d differs with a ShardSink attached", i)
		}
	}
	if len(sc.Dones) == 0 {
		t.Fatal("no ShardDone events")
	}
	total, tasksTotal := 0, 0
	for i, d := range sc.Dones {
		if d.Seq != i {
			t.Fatalf("ShardDone %d has seq %d; events must arrive in canonical order", i, d.Seq)
		}
		if d.Country == "" {
			t.Fatalf("ShardDone %d has no country", i)
		}
		if d.Metrics == nil {
			t.Fatalf("ShardDone %d carries no metrics", i)
		}
		total += d.Samples
		tasksTotal += d.Tasks
	}
	if total != len(sc.Samples) {
		t.Fatalf("ShardDone sample counts sum to %d, stream has %d", total, len(sc.Samples))
	}
	if tasksTotal != len(tasks) {
		t.Fatalf("ShardDone task counts sum to %d, want %d", tasksTotal, len(tasks))
	}

	plainText := plainReg.Snapshot().Deterministic().Text()
	shardText := shardReg.Snapshot().Deterministic().Text()
	if plainText != shardText {
		t.Fatalf("a ShardSink changed the deterministic snapshot:\n--- plain ---\n%s\n--- shard-sink ---\n%s", plainText, shardText)
	}
}

// TestResumeSkipsPrefix: resuming past k shards emits exactly the
// suffix of the canonical stream, and the outage/coverage accounting —
// recomputed over all shards, skipped included — matches the full run.
func TestResumeSkipsPrefix(t *testing.T) {
	domains, countries := smallInputs(40)
	tasks := skewedTasks(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 8

	var full shardCollect
	if err := Run(context.Background(), testNet, domains, countries, tasks, cfg, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Dones) < 3 {
		t.Fatalf("workload built only %d shards; test needs a longer prefix", len(full.Dones))
	}

	for _, skip := range []int{1, len(full.Dones) / 2, len(full.Dones)} {
		lost := make([]OutageReason, skip)
		skipped := 0
		for i := 0; i < skip; i++ {
			lost[i] = full.Dones[i].Lost
			skipped += full.Dones[i].Samples
		}
		rcfg := cfg
		rcfg.Resume = &Resume{Shards: skip, Lost: lost}
		var part Collect
		if err := Run(context.Background(), testNet, domains, countries, tasks, rcfg, &part); err != nil {
			t.Fatalf("skip %d: %v", skip, err)
		}
		if want := len(full.Samples) - skipped; len(part.Samples) != want {
			t.Fatalf("skip %d: emitted %d samples, want %d", skip, len(part.Samples), want)
		}
		for i := range part.Samples {
			if part.Samples[i] != full.Samples[skipped+i] {
				t.Fatalf("skip %d: sample %d is not the canonical suffix", skip, i)
			}
		}
		if len(part.Outages) != len(full.Outages) {
			t.Fatalf("skip %d: %d outages, full run had %d", skip, len(part.Outages), len(full.Outages))
		}
		if part.Coverage.Requested != full.Coverage.Requested ||
			part.Coverage.Attained != full.Coverage.Attained ||
			part.Coverage.TasksLost != full.Coverage.TasksLost {
			t.Fatalf("skip %d: coverage %+v, full run %+v", skip, part.Coverage, full.Coverage)
		}
	}
}
