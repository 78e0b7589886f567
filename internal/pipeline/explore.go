package pipeline

import (
	"sort"

	"geoblock/internal/blockpage"
	"geoblock/internal/cdnid"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/worldgen"
)

// ExploreResult captures the §3.1 exploration: NS-based discovery of
// Akamai and Cloudflare customers, curl/ZGrab-style probing from the
// VPS fleet, and the browser-verification pass that exposes the bot
// false positives.
type ExploreResult struct {
	NSCloudflare int
	NSAkamai     int

	// The Iran-vs-US 403 comparison.
	Iran403 int
	US403   int

	// Block-page pairs across all VPSes (the 1,068 of §3.1) and the
	// browser-verification outcome (782 genuine, 27% false positives —
	// all from Akamai bot detection).
	PairsBlockpage       int
	GenuinePairs         int
	FalsePositives       int
	FalsePositivesAkamai int
	UniqueDomains        int
	PerProviderPairs     map[blockpage.Kind]int

	// Telemetry is the engine-health snapshot at the end of the run,
	// deterministic view (see Top10KResult.Telemetry).
	Telemetry *telemetry.Snapshot
}

// RunExploration executes the §3.1 exploration against the Top-1M NS
// populations.
func (s *Study) RunExploration() *ExploreResult {
	r := &ExploreResult{PerProviderPairs: map[blockpage.Kind]int{}}
	endStage := s.stage("explore")
	defer func() {
		endStage()
		r.Telemetry = s.snapshot()
	}()

	id := cdnid.NewIdentifier(s.World)
	nsPops := map[worldgen.Provider][]int{}
	res := id.NSPopulations(1, len(s.World.Top10K()))
	for p, rs := range res {
		nsPops[p] = append(nsPops[p], rs...)
	}
	// Extend NS discovery over the customer ranks.
	for _, rank := range s.World.CustomerRanks() {
		d := s.World.DomainAt(rank)
		if d == nil || !d.NSDetectable {
			continue
		}
		switch d.Providers[0] {
		case worldgen.Cloudflare:
			nsPops[worldgen.Cloudflare] = append(nsPops[worldgen.Cloudflare], rank)
		case worldgen.Akamai:
			nsPops[worldgen.Akamai] = append(nsPops[worldgen.Akamai], rank)
		}
	}
	r.NSCloudflare = len(nsPops[worldgen.Cloudflare])
	r.NSAkamai = len(nsPops[worldgen.Akamai])

	var domains []string
	for _, p := range []worldgen.Provider{worldgen.Cloudflare, worldgen.Akamai} {
		sort.Ints(nsPops[p])
		for _, rank := range nsPops[p] {
			domains = append(domains, s.World.DomainAt(rank).Name)
		}
	}
	s.logf("explore: %d NS-detected domains (%d CF, %d Akamai)",
		len(domains), r.NSCloudflare, r.NSAkamai)

	fleet := proxy.VPSFleet(s.World, proxy.VPSCountries())
	cfg := s.scanConfig("explore")
	cfg.Samples = 1
	cfg.Headers = scanner.ZGrabHeaders()

	countryIdx := map[geo.CountryCode]int16{}
	for i, v := range fleet {
		countryIdx[v.Country] = int16(i)
	}

	blockPairs := map[pairKey]blockpage.Kind{}
	uniqueDomains := map[int32]bool{}
	s.scanVPSStream("explore", cfg, fleet, domains, nil,
		scanner.SinkFunc(func(sm scanner.Sample) {
			if !sm.OK() {
				return
			}
			if sm.Status == 403 {
				switch sm.Country {
				case countryIdx["IR"]:
					r.Iran403++
				case countryIdx["US"]:
					r.US403++
				}
			}
			if sm.Body == "" {
				return
			}
			k := s.Classifier.Classify(sm.Body)
			if k == blockpage.Akamai || k == blockpage.Cloudflare {
				blockPairs[pairKey{sm.Domain, sm.Country}] = k
				uniqueDomains[sm.Domain] = true
			}
		}))
	r.PairsBlockpage = len(blockPairs)
	r.UniqueDomains = len(uniqueDomains)

	// Manual verification: load each flagged pair in "a real web
	// browser tunneled through the VPS" — full browser headers. Bot
	// false positives load fine; genuine geoblocks stay blocked. A VPS
	// sample depends only on (domain, VPS, phase, attempt), so one scan
	// of every flagged pair verifies each as its own fetch would.
	genuine := map[pairKey]bool{}
	verifyCfg := s.scanConfig("explore-verify")
	verifyCfg.Samples = 1
	s.scanVPSStream("explore-verify", verifyCfg, fleet, domains, taskList(blockPairs),
		scanner.SinkFunc(func(sm scanner.Sample) {
			key := pairKey{sm.Domain, sm.Country}
			if sm.OK() && sm.Body != "" && s.Classifier.Classify(sm.Body) == blockPairs[key] {
				genuine[key] = true
			}
		}))
	for key, kind := range blockPairs {
		r.PerProviderPairs[kind]++
		if genuine[key] {
			r.GenuinePairs++
			continue
		}
		r.FalsePositives++
		if kind == blockpage.Akamai {
			r.FalsePositivesAkamai++
		}
	}
	return r
}
