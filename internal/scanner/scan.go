// The residential-mesh engine: Run, the per-shard session and fetch
// loop its units execute, and the outage accounting at the end of a
// scan.
package scanner

import (
	"context"
	"errors"

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
	return NewPlan(domains, countries, tasks, cfg).run(ctx, net, sink)
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

// Scan is the collecting form of Run: it materializes the full Result.
// A cancelled scan returns the samples emitted so far alongside
// ctx.Err().
func Scan(ctx context.Context, net *proxy.Network, domains []string, countries []geo.CountryCode, tasks []Task, cfg Config) (*Result, error) {
	c := Collect{Samples: make([]Sample, 0, len(tasks)*cfg.withDefaults().Samples)}
	err := Run(ctx, net, domains, countries, tasks, cfg, &c)
	return &Result{Domains: domains, Countries: countries, Samples: c.Samples, Outages: c.Outages, Coverage: c.Coverage}, err
}

// scanShard runs one shard of p's tasks, whose domains targets holds
// resolved against net's world, through its own sticky session, opened
// in u, appends their samples to out and reports why (if at all) its
// tasks were lost. Its session and fetch metrics go into m. tb, when
// non-nil, stages the shard's trace events — session open and the
// closing unit event.
func scanShard(ctx context.Context, net *proxy.Network, p *Plan, targets []target, sh *shard, u *unitState, tb *trace.Buffer, m *UnitMetrics, out []Sample) ([]Sample, OutageReason) {
	cfg := p.cfg
	unitStart := tb.Wall()

	se := &u.se
	err := se.open(net, geo.CountryCode(sh.country), sh.slot, cfg.Retries, m)
	if tb != nil {
		ev := trace.NewEvent(tb.Ctx().Child("session.open", 0), "session.open")
		ev.Unit = sh.seq
		ev.Country = sh.country
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
		lost := OutageNoExits
		var brown *proxy.ErrBrownout
		if errors.As(err, &brown) {
			lost = OutageBrownout
		}
		for _, t := range sh.tasks {
			for a := 0; a < cfg.Samples; a++ {
				out = append(out, Sample{Domain: t.Domain, Country: t.Country, Attempt: uint8(a), Err: ErrNoExits})
			}
		}
		closeUnit(tb, sh, cfg, len(out), unitStart, lost)
		return out, lost
	}

	// The session counts the injected faults it acts on; the unit's
	// metrics take them when the unit ends.
	defer func() { m.Faults = se.s.Faults() }()
	f := &u.f
	f.reset(ctx, &se.s, cfg, p.headers, m)
	salt := seedSalt(sh.country, cfg.Phase)
	done := ctx.Done()
	for _, t := range sh.tasks {
		if stopped(done) {
			return out, OutageNone
		}
		tg := &targets[t.Domain]
		f.aim(tg)
		for a := 0; a < cfg.Samples; a++ {
			out = append(out, fetchReliable(f, se, saltedSeed(tg.seed, salt, a), t, uint8(a)))
		}
	}
	lost := OutageNone
	if se.dark() {
		lost = OutageDark
	}
	closeUnit(tb, sh, cfg, len(out), unitStart, lost)
	return out, lost
}

// accountOutages folds per-shard loss records into per-country Outage
// entries (scan order) and the run's Coverage summary. It runs in
// Assembly.Finish, after the last unit is emitted, so the sink's
// no-locking contract is untouched.
func accountOutages(shards []shard, countries []geo.CountryCode) ([]Outage, Coverage) {
	type tally struct {
		total, lost, tasks int
		byReason           [OutageDark + 1]int
	}
	tallies := make([]tally, len(countries))
	requested := make([]bool, len(countries))
	for i := range shards {
		sh := &shards[i]
		t := &tallies[sh.group]
		t.total++
		requested[sh.group] = true
		if lost := sh.res.Lost; lost != OutageNone {
			t.lost++
			t.tasks += len(sh.tasks)
			t.byReason[lost]++
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
