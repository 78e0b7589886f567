// The engine: wires scheduler, session, fetcher, and sink together
// for residential-mesh scans.
package scanner

import (
	"context"
	"errors"
	"fmt"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

// Run measures tasks through the proxy mesh, streaming samples into
// sink in canonical country-major, task-order sequence. It returns
// ctx.Err() if the scan was cancelled (in which case the sink holds a
// prefix of the full run), nil otherwise.
//
// Degradation contract: a country whose exits are exhausted — empty
// inventory, a superproxy that never accepts a session, or a dark
// inventory the circuit breaker writes off — still emits its samples
// (as ErrNoExits), and a sink that implements OutageSink additionally
// receives one typed Outage per affected country followed by the
// run's Coverage summary.
func Run(ctx context.Context, net *proxy.Network, domains []string, countries []geo.CountryCode, tasks []Task, cfg Config, sink Sink) error {
	cfg = cfg.withDefaults()
	pol := cfg.retryPolicy()

	shards := buildCountryShards(countries, tasks, cfg)
	skip, err := resumePrefix(cfg, shards)
	if err != nil {
		return err
	}
	_, journaling := sink.(ShardSink)

	scanCtx := ScanTraceCtx(cfg)
	run := func(ctx context.Context, sh *shard) {
		sh.country = string(countries[sh.group])
		scfg := cfg
		if journaling && cfg.Metrics != nil {
			// Stage this shard's session and fetch metrics in a
			// shard-local registry so ShardDone can carry exactly this
			// shard's contribution; the emitter merges it back.
			sh.staging = telemetry.NewWithClock(cfg.Metrics.Clock())
			scfg.Metrics = sh.staging
		}
		tb := unitBuffer(scanCtx, sh.seq, cfg)
		sh.out = scanShard(ctx, net, domains, countries, sh, scfg, pol, tb)
		sh.events = tb.Events()
	}
	creditSkipped(cfg, skip)
	em := newEmitter(sink, shards, skip, cfg.Metrics, cfg.Trace, scanCtx, cfg.Phase)
	if err := schedule(ctx, shards, skip, cfg.Concurrency, run, em); err != nil {
		return err
	}
	os, isOutageSink := sink.(OutageSink)
	if isOutageSink || cfg.Metrics != nil || cfg.Trace != nil {
		outages, cov := accountOutages(shards, countries)
		countOutages(cfg.Metrics, outages, cov)
		recordScanTail(cfg.Trace, scanCtx, cfg.Phase, outages, len(shards))
		if isOutageSink {
			for _, o := range outages {
				os.EmitOutage(o)
			}
			os.EmitCoverage(cov)
		}
	}
	return nil
}

// countOutages mirrors the outage accounting into the registry.
func countOutages(reg *telemetry.Registry, outages []Outage, cov Coverage) {
	if reg == nil {
		return
	}
	for _, o := range outages {
		reg.Counter(telemetry.Label(MetOutages, "reason", o.Reason.String())).Add(1)
	}
	reg.Counter(MetOutagesTotal).Add(int64(len(outages)))
	reg.Counter(MetCovRequested).Add(int64(cov.Requested))
	reg.Counter(MetCovAttained).Add(int64(cov.Attained))
	reg.Counter(MetCovTasksLost).Add(int64(cov.TasksLost))
}

// resumePrefix validates cfg.Resume against the freshly built shard
// set and stamps the restored loss records onto the skipped prefix, so
// the end-of-run outage and coverage accounting — which walks all
// shards — reproduces the uninterrupted run's records exactly.
func resumePrefix(cfg Config, shards []*shard) (int, error) {
	r := cfg.Resume
	if r == nil {
		return 0, nil
	}
	if r.Shards < 0 || r.Shards > len(shards) {
		return 0, fmt.Errorf("scanner: resume prefix of %d shards outside 0..%d", r.Shards, len(shards))
	}
	if len(r.Lost) != r.Shards {
		return 0, fmt.Errorf("scanner: resume carries %d loss records for %d shards", len(r.Lost), r.Shards)
	}
	for i := 0; i < r.Shards; i++ {
		shards[i].lost = r.Lost[i]
	}
	return r.Shards, nil
}

// creditSkipped restores the shards-done credit a live run of the
// skipped prefix would have produced. The prefix's samples and
// session/fetch metrics are restored separately by the journal's replay
// (see internal/runstore), and its loss records by resumePrefix,
// keeping the deterministic telemetry view identical to an
// uninterrupted run.
func creditSkipped(cfg Config, skipped int) {
	if skipped > 0 {
		cfg.Metrics.Counter(MetShardsDone).Add(int64(skipped))
	}
}

// Scan is the collecting form of Run: it materializes the full Result.
// A cancelled scan returns the samples emitted so far alongside
// ctx.Err().
func Scan(ctx context.Context, net *proxy.Network, domains []string, countries []geo.CountryCode, tasks []Task, cfg Config) (*Result, error) {
	var c Collect
	err := Run(ctx, net, domains, countries, tasks, cfg, &c)
	return &Result{Domains: domains, Countries: countries, Samples: c.Samples, Outages: c.Outages, Coverage: c.Coverage}, err
}

// scanShard runs one shard's tasks through its own sticky session,
// recording on the shard why (if at all) its tasks were lost. tb,
// when non-nil, stages the shard's trace events — session open, one
// wide record per fetch, and the closing unit event.
func scanShard(ctx context.Context, net *proxy.Network, domains []string, countries []geo.CountryCode, sh *shard, cfg Config, pol RetryPolicy, tb *trace.Buffer) []Sample {
	out := make([]Sample, 0, len(sh.tasks)*cfg.Samples)
	cc := countries[sh.group]
	unitStart := tb.Wall()

	se, err := openSession(net, cc, sh.slot, pol, cfg.Metrics)
	if tb != nil {
		ev := trace.NewEvent(tb.Ctx().Child("session.open", 0), "session.open")
		ev.Unit = sh.seq
		ev.Country = string(cc)
		ev.Phase = cfg.Phase
		if err == nil {
			ev.Outcome = "ok"
		} else {
			ev.Outcome = "error"
		}
		ev.WallNS = unitStart
		ev.WallDurNS = tb.Wall() - unitStart
		tb.Record(ev)
	}
	if err != nil {
		var brown *proxy.ErrBrownout
		if errors.As(err, &brown) {
			sh.lost = OutageBrownout
		} else {
			sh.lost = OutageNoExits
		}
		for _, t := range sh.tasks {
			for a := 0; a < cfg.Samples; a++ {
				out = append(out, Sample{Domain: t.Domain, Country: t.Country, Attempt: uint8(a), Err: ErrNoExits})
			}
		}
		closeUnit(tb, sh, cfg, string(cc), len(out), unitStart)
		return out
	}

	f := newFetcher(ctx, se.transport(), cfg)
	for ti, t := range sh.tasks {
		if ctx.Err() != nil {
			return out
		}
		domain := domains[t.Domain]
		for a := 0; a < cfg.Samples; a++ {
			seed := sampleSeed(domain, string(cc), cfg.Phase, a)
			if tb == nil {
				out = append(out, fetchReliable(f, se, domain, seed, t, uint8(a)))
				continue
			}
			fetchStart := tb.Wall()
			s := fetchReliable(f, se, domain, seed, t, uint8(a))
			out = append(out, s)
			recordFetch(tb, sh, cfg, string(cc), domain, ti*cfg.Samples+a, s, fetchStart)
		}
	}
	if se.dark() {
		sh.lost = OutageDark
	}
	closeUnit(tb, sh, cfg, string(cc), len(out), unitStart)
	return out
}

// accountOutages folds per-shard loss records into per-country Outage
// entries (scan order) and the run's Coverage summary. It runs after
// the pool drains, on the caller's goroutine, so the sink's
// no-locking contract is untouched.
func accountOutages(shards []*shard, countries []geo.CountryCode) ([]Outage, Coverage) {
	type tally struct {
		total, lost, tasks int
		byReason           [OutageDark + 1]int
	}
	tallies := make([]tally, len(countries))
	requested := make([]bool, len(countries))
	for _, sh := range shards {
		t := &tallies[sh.group]
		t.total++
		requested[sh.group] = true
		if sh.lost != OutageNone {
			t.lost++
			t.tasks += len(sh.tasks)
			t.byReason[sh.lost]++
		}
	}

	var outages []Outage
	var cov Coverage
	for g, t := range tallies {
		if !requested[g] {
			continue
		}
		cov.Requested++
		if t.lost == 0 {
			cov.Attained++
			continue
		}
		reason := OutageNoExits
		for r := OutageNoExits; r <= OutageDark; r++ {
			if t.byReason[r] > t.byReason[reason] {
				reason = r
			}
		}
		outages = append(outages, Outage{
			Country:     countries[g],
			Reason:      reason,
			Shards:      t.lost,
			ShardsTotal: t.total,
			Tasks:       t.tasks,
		})
		cov.TasksLost += t.tasks
		if t.lost == t.total {
			cov.Lost = append(cov.Lost, countries[g])
		} else {
			cov.Attained++
		}
	}
	return outages, cov
}
