package pipeline

import (
	"sort"

	"geoblock/internal/blockpage"
	"geoblock/internal/category"
	"geoblock/internal/cdnid"
	"geoblock/internal/consistency"
	"geoblock/internal/geo"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/worldgen"
)

// Top1MConfig tunes the §5 study.
type Top1MConfig struct {
	SampleFraction float64 // 0.05
	InitialSamples int     // 3
	ResampleCount  int     // 20
	Threshold      float64 // 0.80
	Concurrency    int
}

func (c *Top1MConfig) fill() {
	if c.SampleFraction == 0 {
		c.SampleFraction = 0.05
	}
	if c.InitialSamples == 0 {
		c.InitialSamples = 3
	}
	if c.ResampleCount == 0 {
		c.ResampleCount = 20
	}
	if c.Threshold == 0 {
		c.Threshold = consistency.DefaultThreshold
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
}

// NonExplicitFinding is one §5.2.2 result: an Akamai or Incapsula
// customer whose ambiguous block page behaves like geoblocking.
type NonExplicitFinding struct {
	DomainName  string
	Rank        int
	Kind        blockpage.Kind
	Consistency float64
	Blocked     []geo.CountryCode // countries at/above the threshold
}

// Top1MResult is everything the §5 analysis needs.
type Top1MResult struct {
	Config Top1MConfig

	// Discovery (§5.1.1).
	Discovered *cdnid.Populations
	DualCount  int

	// Sampling (§5.1.2).
	EligibleCount int // after category + Citizen Lab filtering
	TestDomains   []string
	TestRanks     []int

	// Snapshot (§5.1.3).
	Countries       []geo.CountryCode
	Initial         *scanner.Result
	NeverResponded  int
	LuminatiBlocked int

	// Explicit geoblockers (§5.2.1).
	CandidatePairs    int
	ExplicitFindings  []Finding
	EliminatedPairs   int
	CensoredGAEPairs  int // explicit blocks hidden behind censorship
	TestedPerProvider map[worldgen.Provider]int

	// Non-explicit geoblockers (§5.2.2).
	NonExplicitSeen     map[blockpage.Kind]int // domains with ≥1 page
	NonExplicitFindings []NonExplicitFinding
	ConsistencyScores   map[blockpage.Kind][]float64

	// Telemetry is the engine-health snapshot at the end of the run,
	// deterministic view (see Top10KResult.Telemetry).
	Telemetry *telemetry.Snapshot
}

// RunTop1M executes the full §5 study.
func (s *Study) RunTop1M(cfg Top1MConfig) *Top1MResult {
	cfg.fill()
	r := &Top1MResult{Config: cfg, TestedPerProvider: map[worldgen.Provider]int{}}
	endStage := s.stage("top1m")
	defer func() {
		endStage()
		r.Telemetry = s.snapshot()
	}()

	endDiscover := s.stage("discover")
	s.discover(r)
	endDiscover()
	s.logf("top1m: discovered %d customers (%d dual)", r.Discovered.Total(), r.DualCount)

	s.sampleTestList(r)
	s.logf("top1m: %d eligible, %d in the %.0f%% sample",
		r.EligibleCount, len(r.TestDomains), cfg.SampleFraction*100)

	r.Countries = s.measurableCountries()
	var classes bodyKinds
	r.Initial, classes = s.initialScan("top1m", r.TestDomains, r.Countries, cfg.InitialSamples, cfg.Concurrency)
	r.NeverResponded, r.LuminatiBlocked = reachability(r.Initial)

	// §5.2.1 confirms explicit pages exactly as §4.1.4 does, but the
	// world does not move between the snapshot and the resample.
	kinds := explicitPairs(r.Initial, classes)
	r.CandidatePairs = len(kinds)
	r.ExplicitFindings, _, r.EliminatedPairs = s.confirm("top1m", r.Initial, classes, r.TestRanks, kinds,
		cfg.ResampleCount, cfg.Threshold, cfg.Concurrency)
	r.CensoredGAEPairs = s.censoredGAEPairs(r.TestRanks)
	s.logf("top1m: %d explicit findings (%d pairs eliminated)",
		len(r.ExplicitFindings), r.EliminatedPairs)

	s.analyzeNonExplicit(r, classes)
	s.logf("top1m: %d non-explicit findings", len(r.NonExplicitFindings))
	return r
}

// discover is §5.1.1: identify the CDN customers. The paper probes
// the whole rank space (cdnid.ScanRanks); the study probes the Top 10K
// and the ranks that are customers, which finds the same populations
// because a non-customer carries no provider evidence.
func (s *Study) discover(r *Top1MResult) {
	id := cdnid.NewIdentifier(s.World)
	id.Concurrency = r.Config.Concurrency
	ranks := make([]int, 0, len(s.World.CustomerRanks())+len(s.World.Top10K()))
	for rank := 1; rank <= len(s.World.Top10K()); rank++ {
		ranks = append(ranks, rank)
	}
	ranks = append(ranks, s.World.CustomerRanks()...)
	r.Discovered = id.ScanRankList(ranks)
	r.DualCount = len(r.Discovered.Dual)
}

// sampleTestList applies the §5.1.2 filter and draws the random sample.
// Only customers beyond the Top 10K enter the Top-1M test list (the
// Top 10K was studied separately in §4).
func (s *Study) sampleTestList(r *Top1MResult) {
	// Invert the discovery output to provider sets per rank.
	rankProviders := map[int][]worldgen.Provider{}
	for p, ranks := range r.Discovered.ByProvider {
		for _, rank := range ranks {
			if rank <= len(s.World.Top10K()) {
				continue // the Top 10K was studied separately (§4)
			}
			rankProviders[rank] = append(rankProviders[rank], p)
		}
	}
	eligible := make([]int, 0, len(rankProviders))
	for rank := range rankProviders {
		d := s.World.DomainAt(rank)
		if category.IsRiskyTop1M(d.Category) || s.World.CitizenLab.Contains(d.Name) {
			continue
		}
		eligible = append(eligible, rank)
	}
	sort.Ints(eligible)
	r.EligibleCount = len(eligible)

	n := int(float64(len(eligible)) * r.Config.SampleFraction)
	if n < 1 && len(eligible) > 0 {
		n = 1
	}
	rng := s.studyRNG("top1m-sample")
	picked := stats.Sample(rng, eligible, n)
	sort.Ints(picked)
	for _, rank := range picked {
		d := s.World.DomainAt(rank)
		r.TestRanks = append(r.TestRanks, rank)
		r.TestDomains = append(r.TestDomains, d.Name)
		for _, p := range rankProviders[rank] {
			r.TestedPerProvider[p]++
		}
	}
}

// censoredGAEPairs counts the §5.2.1 censorship interference: pairs of
// an App Engine-hosted sample domain and a sanctioned country whose
// national filter censors it, so the platform's own block there could
// not be measured (the 5-in-Iran / 2-in-Syria effect).
func (s *Study) censoredGAEPairs(ranks []int) int {
	n := 0
	for _, rank := range ranks {
		d := s.World.DomainAt(rank)
		if d == nil || !d.GAEHosted {
			continue
		}
		for cc := range d.CensoredIn {
			switch cc {
			case "IR", "SY", "SD", "CU":
				n++
			}
		}
	}
	return n
}

// analyzeNonExplicit is §5.2.2: for every sampled domain that served an
// Akamai or Incapsula page anywhere, sample it again in *every* country
// and apply the consistency metric; report domains with a perfect
// consistency score that are not blocked everywhere.
func (s *Study) analyzeNonExplicit(r *Top1MResult, classes bodyKinds) {
	ambiguous := map[int32]blockpage.Kind{}
	for i := range r.Initial.Samples {
		if k := classes.at(i); k == blockpage.Akamai || k == blockpage.Incapsula {
			ambiguous[r.Initial.Samples[i].Domain] = k
		}
	}
	r.NonExplicitSeen = map[blockpage.Kind]int{}
	for _, k := range ambiguous {
		r.NonExplicitSeen[k]++
	}

	domains := make([]int32, 0, len(ambiguous))
	for d := range ambiguous {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool { return domains[i] < domains[j] })

	tasks := make([]scanner.Task, 0, len(domains)*len(r.Countries))
	for ci := range r.Countries {
		for _, d := range domains {
			tasks = append(tasks, scanner.Task{Domain: d, Country: int16(ci)})
		}
	}
	scanCfg := s.scanConfig("top1m-nonexplicit")
	scanCfg.Samples = r.Config.ResampleCount
	scanCfg.Concurrency = r.Config.Concurrency

	// This is the study's widest scan — every ambiguous domain in
	// every country, 20 samples each — so it streams into per-domain,
	// per-country rates and drops each body the moment it classifies.
	perDomain := map[int32]map[string]consistency.Rate{}
	s.scanStream("top1m-nonexplicit", scanCfg, r.TestDomains, r.Countries, tasks,
		scanner.SinkFunc(func(sm scanner.Sample) {
			kind, tracked := ambiguous[sm.Domain]
			if !tracked || !sm.OK() {
				return
			}
			m := perDomain[sm.Domain]
			if m == nil {
				m = map[string]consistency.Rate{}
				perDomain[sm.Domain] = m
			}
			cc := string(r.Countries[sm.Country])
			rate := m[cc]
			rate.Responses++
			if sm.Body != "" && s.Classifier.Classify(sm.Body) == kind {
				rate.Blocks++
			}
			m[cc] = rate
		}))

	r.ConsistencyScores = map[blockpage.Kind][]float64{}
	for _, dIdx := range domains {
		kind := ambiguous[dIdx]
		perCountry := perDomain[dIdx]
		if perCountry == nil {
			continue
		}
		score, seen := consistency.DomainConsistency(perCountry, r.Config.Threshold)
		if seen == 0 {
			continue
		}
		r.ConsistencyScores[kind] = append(r.ConsistencyScores[kind], score)
		if score < 1.0 || consistency.BlockedEverywhere(perCountry, r.Config.Threshold) {
			continue
		}
		var blocked []geo.CountryCode
		for cc, rate := range perCountry {
			if rate.Blocks > 0 && rate.Confirmed(r.Config.Threshold) {
				blocked = append(blocked, geo.CountryCode(cc))
			}
		}
		sort.Slice(blocked, func(i, j int) bool { return blocked[i] < blocked[j] })
		r.NonExplicitFindings = append(r.NonExplicitFindings, NonExplicitFinding{
			DomainName:  r.TestDomains[dIdx],
			Rank:        r.TestRanks[dIdx],
			Kind:        kind,
			Consistency: score,
			Blocked:     blocked,
		})
	}
}
