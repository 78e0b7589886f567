// The VPS engine: the §3.1 datacenter exploration, run as a fleet
// Plan on the same scheduler/fetcher/sink layers. There is no session
// layer — VPS vantage points are stable addresses with no proxy
// failures and no rotation budget — so each shard is a bare fetch loop.
package scanner

import (
	"context"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/trace"
)

// RunVPS streams a VPS-fleet scan into sink. Tasks index domains and
// fleet positions (Task.Country is the VPS index); a nil task list
// scans the full cross product. Samples are a pure function of
// (domain, VPS, phase, attempt) — no session state — so results are
// identical at any concurrency and shard size.
func RunVPS(ctx context.Context, fleet []*proxy.VPS, domains []string, tasks []Task, cfg Config, sink Sink) error {
	if cfg.Headers == nil {
		cfg.Headers = ZGrabHeaders()
	}
	if tasks == nil {
		tasks = CrossProduct(len(domains), len(fleet))
	}
	return newPlan(domains, fleetCountries(fleet), fleet, tasks, cfg).run(ctx, nil, sink)
}

// ScanVPS is the collecting form of RunVPS over the full cross
// product, with one Result country entry per fleet position.
func ScanVPS(ctx context.Context, fleet []*proxy.VPS, domains []string, cfg Config) (*Result, error) {
	c := Collect{Samples: make([]Sample, 0, len(domains)*len(fleet)*cfg.withDefaults().Samples)}
	err := RunVPS(ctx, fleet, domains, nil, cfg, &c)
	return &Result{Domains: domains, Countries: fleetCountries(fleet), Samples: c.Samples}, err
}

// fleetCountries lists each fleet position's country.
func fleetCountries(fleet []*proxy.VPS) []geo.CountryCode {
	countries := make([]geo.CountryCode, len(fleet))
	for i, v := range fleet {
		countries[i] = v.Country
	}
	return countries
}

// scanVPSShard fetches one shard of p's tasks, whose domains targets
// holds resolved against v's world, from v through f, appending their
// samples to out.
func scanVPSShard(ctx context.Context, v *proxy.VPS, p *Plan, targets []target, sh *shard, f *fetcher, tb *trace.Buffer, m *UnitMetrics, out []Sample) []Sample {
	cfg := p.cfg
	f.reset(ctx, v.Stack(), cfg, p.headers, m)
	unitStart := tb.Wall()
	salt := seedSalt(sh.country, cfg.Phase+"/vps")
	done := ctx.Done()
	for _, t := range sh.tasks {
		if stopped(done) {
			return out
		}
		tg := &targets[t.Domain]
		f.aim(tg)
		for a := 0; a < cfg.Samples; a++ {
			out = append(out, f.fetch(saltedSeed(tg.seed, salt, a), t, uint8(a), v.IP))
		}
	}
	closeUnit(tb, sh, cfg, len(out), unitStart, OutageNone)
	return out
}
