package worldgen

import (
	"fmt"

	"geoblock/internal/blockpage"
	"geoblock/internal/category"
	"geoblock/internal/citizenlab"
	"geoblock/internal/geo"
	"geoblock/internal/stats"
)

// censorAggressiveness ranks the countries whose national filters the
// simulation models, as a multiplier on censorship rates. The censoring
// set follows the literature the paper cites (China, Iran, Pakistan,
// Syria, …); OONI's 12 state-censorship countries are drawn from here.
var censorAggressiveness = map[geo.CountryCode]float64{
	"CN": 3.0, "IR": 2.2, "SY": 1.0, "RU": 0.8, "TR": 0.8, "PK": 0.7,
	"SA": 0.6, "VN": 0.5, "EG": 0.4, "AE": 0.4, "ID": 0.3, "BY": 0.3,
}

// CensorCountries returns the censoring countries in stable order.
func CensorCountries() []geo.CountryCode {
	out := []geo.CountryCode{"AE", "BY", "CN", "EG", "ID", "IR", "PK", "RU", "SA", "SY", "TR", "VN"}
	return out
}

// Generate builds the world from cfg. Same config → identical world.
func Generate(cfg Config) *World {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		panic("worldgen: Config.Scale must be in (0, 1]")
	}
	root := stats.NewRNG(cfg.Seed)
	w := &World{
		Cfg:       cfg,
		Geo:       geo.NewDB(),
		byName:    make(map[string]*Domain),
		customers: make(map[int]customerSeed),
		lazy:      make(map[int]*Domain),
		lazyNames: make(map[string]*Domain),
		seed:      cfg.Seed,
	}

	w.highRisk, w.measurable = highRiskCountries(w.Geo), w.Geo.Measurable()
	g := &generator{cfg: &cfg, w: w, names: newNameGen(root.Fork("names"))}
	g.generateTop10K(root.Fork("top10k"))
	g.placeCameos(root.Fork("cameos"))
	g.assignTop1MCustomers(root.Fork("top1m"))
	g.buildCitizenLab(root.Fork("citizenlab"))
	g.assignCensorship(root.Fork("censorship"))
	w.customerRanks = sortedRanks(w.customers)
	return w
}

type generator struct {
	cfg   *Config
	w     *World
	names *nameGen
}

// generateTop10K materializes the popular-site population.
func (g *generator) generateTop10K(rng *stats.RNG) {
	cfg := g.cfg
	size := cfg.scaled(cfg.Top10KSize)

	// Lay out CDN assignments: exact per-provider counts scattered
	// uniformly over the ranks.
	assignment := make([]Provider, size)
	perm := rng.Perm(size)
	next := 0
	for _, p := range CDNs() {
		n := cfg.scaled(cfg.Top10KProviderCounts[p])
		for i := 0; i < n && next < size; i++ {
			assignment[perm[next]] = p
			next++
		}
	}

	weights := category.Top10KWeights()
	ws := make([]float64, len(weights))
	for i, cw := range weights {
		ws[i] = cw.W
	}

	g.w.top10k = make([]*Domain, size)
	for rank := 1; rank <= size; rank++ {
		drng := rng.Fork("d" + itoa(rank))
		tld := g.names.tld()
		name := g.names.next(tld)
		cat := weights[drng.WeightedChoice(ws)].Cat

		var chain []Provider
		if p := assignment[rank-1]; p != "" {
			chain = []Provider{p}
		} else {
			chain = []Provider{pickHosting(drng)}
		}

		d := &Domain{
			Name:      name,
			Rank:      rank,
			TLD:       tld,
			Category:  cat,
			Providers: chain,
			Origin:    newOrigin(name, drng),
			GeoRules:  map[Provider]*GeoRule{},
		}
		g.decoratePopulation(d, drng)
		g.assignPolicies(d, drng, false)
		g.w.top10k[rank-1] = d
		g.w.byName[name] = d
	}
}

// decoratePopulation applies the population-level pathologies of
// §4.1.1: unreachable domains, proxy-refused domains, redirects.
func (g *generator) decoratePopulation(d *Domain, rng *stats.RNG) {
	cfg := g.cfg
	switch {
	case rng.Bool(cfg.LuminatiRestrictedRate):
		d.LuminatiRestricted = true
	case rng.Bool(cfg.UnreachableRate):
		d.Unreachable = true
	case rng.Bool(cfg.RedirectLoopRate):
		d.RedirectLoop = true
	default:
		// Most sites redirect once or twice (http→https, apex→www).
		if rng.Bool(0.55) {
			d.RedirectHops = 1 + rng.Intn(2)
		}
	}
	if rng.Bool(cfg.CitizenLabOverlapRate) || (category.IsRisky(d.Category) && rng.Bool(0.03)) {
		d.OnCitizenLab = true
	}
}

// assignPolicies synthesizes the domain's access rules. top1m selects
// the Top-1M calibration for the App Engine hosting rate.
func (g *generator) assignPolicies(d *Domain, rng *stats.RNG, top1m bool) {
	cfg := g.cfg
	bias := cfg.catBias(d.Category)

	for _, p := range d.Providers {
		switch p {
		case AppEngine:
			rate := cfg.GAEHostedRateTop10K
			if top1m {
				rate = cfg.GAEHostedRateTop1M
			}
			d.GAEHosted = rng.Bool(rate)
		case Cloudflare:
			d.NSDetectable = rng.Bool(0.020)
			if rng.Bool(clamp01(cfg.CFGeoblockRate * bias)) {
				d.GeoRules[p] = g.scatteredBlockRule(rng)
			} else if rng.Bool(cfg.CFCaptchaRate) {
				d.GeoRules[p] = g.challengeRule(rng, ActionCaptcha)
			} else if rng.Bool(cfg.CFJSRate) {
				d.GeoRules[p] = g.jsRule(rng)
			}
		case CloudFront:
			if rng.Bool(clamp01(cfg.CloudFrontGeoblockRate * bias)) {
				d.GeoRules[p] = g.wideBlockRule(rng)
			}
		case Akamai:
			d.NSDetectable = rng.Bool(0.383)
			d.BotSensitivity = akamaiBotSensitivity(rng, cfg.AkamaiBotSensitivityRate)
			d.BlocksProxies = rng.Bool(cfg.ProxyBlockAkamai)
			if rng.Bool(cfg.ReputationProneRate) {
				d.ReputationSensitivity = cfg.ReputationMin + cfg.ReputationSpan*rng.Float64()
			}
			if rng.Bool(clamp01(cfg.AkamaiGeoblockRate * bias)) {
				d.GeoRules[p] = g.scatteredBlockRule(rng)
			}
		case Incapsula:
			d.BotSensitivity = akamaiBotSensitivity(rng, cfg.AkamaiBotSensitivityRate*0.8)
			d.BlocksProxies = rng.Bool(cfg.ProxyBlockIncapsula)
			if rng.Bool(cfg.ReputationProneRate) {
				d.ReputationSensitivity = cfg.ReputationMin + cfg.ReputationSpan*rng.Float64()
			}
			if rng.Bool(clamp01(cfg.IncapsulaGeoblockRate * bias)) {
				d.GeoRules[p] = g.scatteredBlockRule(rng)
			}
		case Baidu:
			if rng.Bool(cfg.BaiduCaptchaRate) {
				d.GeoRules[p] = g.challengeRule(rng, ActionCaptcha)
			}
		case Soasta:
			if rng.Bool(cfg.SoastaBlockRate) {
				d.GeoRules[p] = g.challengeRule(rng, ActionBlock)
			}
		case OriginNginx:
			d.BlocksProxies = rng.Bool(cfg.ProxyBlockNginx)
			if rng.Bool(cfg.NginxGeoblockRate) {
				d.GeoRules[p] = g.proxyHostileRule(rng)
			}
		case OriginVarnish:
			if rng.Bool(cfg.VarnishGeoblockRate) {
				d.GeoRules[p] = g.proxyHostileRule(rng)
			}
		}
	}
	if rng.Bool(cfg.DistilRate) {
		d.DistilProtected = true
		d.BlocksProxies = rng.Bool(cfg.ProxyBlockDistil)
		d.ResidentialChallengeRate = 0.10 + 0.30*rng.Float64()
		if _, ok := d.GeoRules[d.Providers[0]]; !ok {
			d.GeoRules[d.Providers[0]] = g.challengeRule(rng, ActionCaptcha)
		}
	} else if rng.Bool(0.05) {
		d.ResidentialChallengeRate = cfg.ResidentialChallengeRate
	}
	if rng.Bool(cfg.JunkProneRate) {
		d.JunkRate = cfg.JunkRateMax * rng.Float64()
	}

	// Timeout geoblocking: origin-hosted sites only (a CDN fronting the
	// site would answer the TCP handshake itself).
	if !d.Providers[0].IsCDN() && rng.Bool(cfg.TimeoutGeoblockRate) {
		rule := g.proxyHostileRule(rng)
		d.TimeoutBlock = rule.Countries
	}

	// Application-layer discrimination concentrates in commerce-shaped
	// categories: removed checkout features and price markups.
	switch d.Category {
	case category.Shopping, category.Travel, category.Auctions, category.PersonalVehicles:
		if rng.Bool(cfg.AppLayerRate) {
			pol := &AppLayerPolicy{
				RestrictedIn: map[geo.CountryCode]bool{},
				PriceMarkup:  map[geo.CountryCode]float64{},
			}
			for _, cc := range []geo.CountryCode{"IR", "SY", "SD", "CU", "KP"} {
				if rng.Bool(0.5) {
					pol.RestrictedIn[cc] = true
				}
			}
			for _, cc := range g.w.highRisk {
				if rng.Bool(0.15) {
					pol.RestrictedIn[cc] = true
				}
			}
			n := 1 + poisson(rng, 2)
			for i := 0; i < n; i++ {
				cc := g.w.measurable[rng.Intn(len(g.w.measurable))]
				pol.PriceMarkup[cc] = 1.1 + 0.5*rng.Float64()
			}
			if len(pol.RestrictedIn) == 0 && len(pol.PriceMarkup) == 0 {
				pol.RestrictedIn["IR"] = true
			}
			d.AppLayer = pol
		}
	}
}

// scatteredBlockRule models the observed Cloudflare/Akamai/Incapsula
// rule shape: the sanctioned set with one coin flip, individual
// high-risk countries with another, and a small random tail.
func (g *generator) scatteredBlockRule(rng *stats.RNG) *GeoRule {
	cfg, highRisk, measurable := g.cfg, g.w.highRisk, g.w.measurable
	r := &GeoRule{Action: ActionBlock, Countries: map[geo.CountryCode]bool{}}
	if rng.Bool(cfg.SanctionedBlockProb) {
		for _, cc := range []geo.CountryCode{"IR", "SY", "SD", "CU", "KP"} {
			r.Countries[cc] = true
		}
		r.BlockCrimea = rng.Bool(0.5)
	}
	for _, cc := range highRisk {
		if rng.Bool(cfg.HighRiskBlockProb) {
			r.Countries[cc] = true
		}
	}
	n := poisson(rng, cfg.RandomBlockMean)
	for i := 0; i < n; i++ {
		r.Countries[measurable[rng.Intn(len(measurable))]] = true
	}
	if len(r.Countries) == 0 {
		r.Countries[measurable[rng.Intn(len(measurable))]] = true
	}
	return r
}

// wideBlockRule models CloudFront's observed market-segmentation rules:
// a wide set of arbitrary countries (~33 in Table 6).
func (g *generator) wideBlockRule(rng *stats.RNG) *GeoRule {
	measurable := g.w.measurable
	n := g.cfg.CloudFrontBlockSetSize + rng.Intn(21) - 10
	if n < 5 {
		n = 5
	}
	if n > len(measurable) {
		n = len(measurable)
	}
	r := &GeoRule{Action: ActionBlock, Countries: map[geo.CountryCode]bool{}}
	for _, i := range rng.SampleInts(len(measurable), n) {
		r.Countries[measurable[i]] = true
	}
	// Sanctioned countries join the set half the time.
	if rng.Bool(0.5) {
		for _, cc := range []geo.CountryCode{"IR", "SY", "SD", "CU"} {
			if rng.Bool(0.5) {
				r.Countries[cc] = true
			}
		}
	}
	return r
}

// challengeRule scopes a captcha/block to a handful of high-risk
// countries (anti-abuse deployments).
func (g *generator) challengeRule(rng *stats.RNG, action Action) *GeoRule {
	highRisk, measurable := g.w.highRisk, g.w.measurable
	r := &GeoRule{Action: action, Countries: map[geo.CountryCode]bool{}}
	n := 3 + rng.Intn(6)
	for i := 0; i < n; i++ {
		r.Countries[highRisk[rng.Intn(len(highRisk))]] = true
	}
	if rng.Bool(0.3) {
		r.Countries[measurable[rng.Intn(len(measurable))]] = true
	}
	return r
}

// jsRule: half of JavaScript-challenge deployments are global
// ("under attack" mode), half country-scoped like captchas.
func (g *generator) jsRule(rng *stats.RNG) *GeoRule {
	if rng.Bool(0.5) {
		r := &GeoRule{Action: ActionJS, Countries: map[geo.CountryCode]bool{}}
		for _, cc := range g.w.measurable {
			r.Countries[cc] = true
		}
		return r
	}
	r := g.challengeRule(rng, ActionJS)
	return r
}

// proxyHostileRule models origin-side country blocks: heavy on the
// abuse-associated countries, mean size ~8.
func (g *generator) proxyHostileRule(rng *stats.RNG) *GeoRule {
	highRisk, measurable := g.w.highRisk, g.w.measurable
	r := &GeoRule{Action: ActionBlock, Countries: map[geo.CountryCode]bool{}}
	for _, cc := range highRisk {
		if rng.Bool(0.4) {
			r.Countries[cc] = true
		}
	}
	n := poisson(rng, 2.5)
	for i := 0; i < n; i++ {
		r.Countries[measurable[rng.Intn(len(measurable))]] = true
	}
	if len(r.Countries) == 0 {
		r.Countries["RU"] = true
	}
	return r
}

// highRiskCountries returns the codes of db's high-risk countries.
func highRiskCountries(db *geo.DB) []geo.CountryCode {
	var out []geo.CountryCode
	for _, c := range db.Countries() {
		if c.HighRisk {
			out = append(out, c.Code)
		}
	}
	return out
}

// akamaiBotSensitivity: a configured fraction of deployments deny
// crawler-like clients essentially everywhere; the rest are mild.
func akamaiBotSensitivity(rng *stats.RNG, rate float64) float64 {
	if rng.Bool(rate) {
		return 0.9 + 0.1*rng.Float64()
	}
	return 0.02 * rng.Float64()
}

// placeCameos overwrites a few generated domains with the named sites
// the paper singles out, so the case studies in §4.2.2 are replayable.
func (g *generator) placeCameos(rng *stats.RNG) {
	w := g.w
	size := len(w.top10k)
	if size < 100 {
		return
	}
	replace := func(idx int, name string, mutate func(d *Domain)) {
		old := w.top10k[idx]
		delete(w.byName, old.Name)
		old.Name = name
		old.TLD = tldOf(name)
		old.Origin = newOrigin(name, rng.Fork(name))
		old.Unreachable, old.LuminatiRestricted, old.RedirectLoop = false, false, false
		old.GeoRules = map[Provider]*GeoRule{}
		old.AirbnbStyle, old.GAEHosted, old.DistilProtected = false, false, false
		old.Legal451 = false
		mutate(old)
		w.byName[name] = old
	}

	// makro.co.za: served a block page everywhere for the initial
	// 3-sample pass in 33 countries, then stopped — a policy change
	// caught mid-study (§4.2). ActiveUntil=1: active only at clock 0.
	replace(size/7, "makro.co.za", func(d *Domain) {
		d.Providers = []Provider{CloudFront}
		d.Category = category.Shopping
		rule := g.wideBlockRule(rng)
		rule.ActiveUntil = 1
		d.GeoRules[CloudFront] = rule
	})

	// geniusdisplay.com: nginx 403 for Russia at the origin, App Engine
	// platform block visible only from Crimean exits (§4.2.2).
	replace(size/5, "geniusdisplay.com", func(d *Domain) {
		d.Providers = []Provider{OriginNginx, AppEngine}
		d.Category = category.Advertising
		d.GAEHosted = true
		d.GeoRules[OriginNginx] = &GeoRule{
			Action:    ActionBlock,
			Countries: map[geo.CountryCode]bool{"RU": true},
		}
	})

	// fasttech.com: the one Baidu Yunjiasu block page, seen in China.
	replace(size/3, "fasttech.com", func(d *Domain) {
		d.Providers = []Provider{Baidu}
		d.Category = category.Shopping
		d.GeoRules[Baidu] = &GeoRule{
			Action:    ActionBlock,
			Countries: map[geo.CountryCode]bool{"CN": true},
		}
	})

	// lexpublica.com: the HTTP 451 curiosity — a site answering its
	// Crimea restriction with RFC 7725's status. Crimean exits are a
	// sliver of Ukraine's inventory, so whole studies observe only a
	// handful of 451s, as the paper did (§2.1).
	replace(size/11, "lexpublica.com", func(d *Domain) {
		d.Providers = []Provider{OriginNginx}
		d.Category = category.NewsMedia
		d.Legal451 = true
		d.GeoRules[OriginNginx] = &GeoRule{
			Action:      ActionBlock,
			Countries:   map[geo.CountryCode]bool{},
			BlockCrimea: true,
		}
	})

	// pbskids.com: the one Child Education geoblocker (Table 4).
	replace(size/9, "pbskids.com", func(d *Domain) {
		d.Providers = []Provider{Cloudflare}
		d.Category = category.ChildEducation
		d.GeoRules[Cloudflare] = &GeoRule{
			Action: ActionBlock,
			Countries: map[geo.CountryCode]bool{
				"IR": true, "SY": true, "SD": true, "CU": true, "KP": true,
			},
		}
	})

	// Airbnb's country-TLD fleet: custom page, Iran/Syria/Crimea/North
	// Korea only (§4.2.2).
	airbnbTLDs := []string{"fr", "it", "de", "es", "jp", "in", "au", "br", "sg", "ru", "nl", "pl", "ca", "mx"}
	n := g.cfg.scaled(g.cfg.AirbnbTLDCount)
	for i := 0; i < n && i < len(airbnbTLDs); i++ {
		idx := size/2 + i*17
		if idx >= size {
			break
		}
		replace(idx, "airbnb."+airbnbTLDs[i], func(d *Domain) {
			d.Providers = []Provider{Akamai}
			d.Category = category.Travel
			d.AirbnbStyle = true
			d.BotSensitivity = 0
		})
	}
}

// assignTop1MCustomers draws the CDN customer population of the long
// tail: exact per-provider counts at uniformly random ranks above the
// Top 10K, with a configured number of dual-provider domains.
func (g *generator) assignTop1MCustomers(rng *stats.RNG) {
	cfg := g.cfg
	w := g.w
	lo := len(w.top10k) + 1
	hi := cfg.Top1MRanks

	pick := func() int {
		for {
			r := lo + rng.Intn(hi-lo+1)
			if _, taken := w.customers[r]; !taken {
				return r
			}
		}
	}

	for _, p := range []Provider{Cloudflare, CloudFront, Akamai, Incapsula, AppEngine} {
		n := cfg.scaled(cfg.Top1MProviderCounts[p])
		for i := 0; i < n; i++ {
			rank := pick()
			seed := customerSeed{providers: []Provider{p}}
			switch p {
			case Cloudflare:
				seed.nsDetectable = rng.Bool(0.020)
			case Akamai:
				seed.nsDetectable = rng.Bool(0.383)
			case AppEngine:
				seed.gaeHosted = rng.Bool(cfg.GAEHostedRateTop1M)
			}
			w.customers[rank] = seed
		}
	}

	// Dual-provider customers: add a second service to existing ones
	// (the paper's zales.com carried both Incapsula and Akamai headers).
	ranks := sortedRanks(w.customers)
	dual := cfg.scaled(cfg.Top1MDualProvider)
	if dual > len(ranks) {
		dual = len(ranks)
	}
	for _, i := range rng.SampleInts(len(ranks), dual) {
		rank := ranks[i]
		seed := w.customers[rank]
		second := []Provider{Incapsula, Akamai, Cloudflare, CloudFront}[rng.Intn(4)]
		if second != seed.providers[0] {
			seed.providers = append(seed.providers, second)
			w.customers[rank] = seed
		}
	}

	// The cameo: the lowest-ranked Incapsula+Akamai customer is the
	// paper's zales.com, named here so that which customer it is does
	// not depend on the order customers are materialized in.
	for _, rank := range ranks {
		seed := w.customers[rank]
		if len(seed.providers) == 2 && seed.providers[0] == Incapsula && seed.providers[1] == Akamai {
			seed.cameo = true
			w.customers[rank] = seed
			break
		}
	}
}

// buildCustomer materializes a Top-1M customer domain. Called lazily
// under w.mu.
func (w *World) buildCustomer(rank int, seed customerSeed) *Domain {
	rng := stats.NewRNG(w.seed).Fork("cust").Fork(itoa(rank))
	tld := tldWeightedPick(rng)
	name := fmt.Sprintf("r%d-site.%s", rank, tld)
	d := &Domain{
		Name:         name,
		Rank:         rank,
		TLD:          tld,
		Category:     pickCategoryTop1M(rng),
		Providers:    seed.providers,
		NSDetectable: seed.nsDetectable,
		GAEHosted:    seed.gaeHosted,
		Origin:       newOrigin(name, rng),
		GeoRules:     map[Provider]*GeoRule{},
	}
	g := &generator{cfg: &w.Cfg, w: w}
	// Population pathologies are rarer in the Top 1M sample (§5.1.3:
	// 26 of 6,180 never responded, 3 Luminati-refused).
	switch {
	case rng.Bool(0.0005):
		d.LuminatiRestricted = true
	case rng.Bool(0.004):
		d.Unreachable = true
	default:
		if rng.Bool(0.5) {
			d.RedirectHops = 1 + rng.Intn(2)
		}
	}
	if rng.Bool(0.004) || (category.IsRiskyTop1M(d.Category) && rng.Bool(0.02)) {
		d.OnCitizenLab = true
	}
	g.assignPoliciesLocked(d, rng)
	g.assignCensorshipForDomain(d, rng)

	if seed.cameo {
		d.Name = "zales.com"
		d.TLD = "com"
		d.Category = category.Shopping
		d.Origin = newOrigin(d.Name, rng)
	}
	return d
}

// assignPoliciesLocked is assignPolicies for lazily built customers
// (the generator here has no name registry; policies only).
func (g *generator) assignPoliciesLocked(d *Domain, rng *stats.RNG) {
	g.assignPolicies(d, rng, true)
}

// buildCitizenLab assembles the test list: flagged population domains
// plus the rest of the global list — sensitive sites outside the
// popular-site populations. The extras are materialized as real,
// servable domains because the OONI analysis (§7.1) probes them: they
// are heavily censored, and they geoblock at a much higher rate than
// popular sites (the paper finds 9% of the global list serving CDN
// block pages somewhere — controversial content attracts geographic
// restriction).
func (g *generator) buildCitizenLab(rng *stats.RNG) {
	var listed []string
	for _, d := range g.w.top10k {
		if d.OnCitizenLab {
			listed = append(listed, d.Name)
		}
	}
	extras := g.cfg.scaled(g.cfg.CitizenLabExtra)
	for i := 0; i < extras; i++ {
		d := g.buildCLExtra(i, rng.Fork("cl-extra-"+itoa(i)))
		g.w.byName[d.Name] = d
		g.w.clExtras = append(g.w.clExtras, d)
		listed = append(listed, d.Name)
	}
	g.w.CitizenLab = citizenlab.Build(rng, listed, 0, CensorCountries())
}

// clExtraCategories is the content mix of the non-popular test-list
// entries: news, forums, political/social content.
var clExtraCategories = []category.Category{
	category.NewsMedia, category.Newsgroups, category.Society,
	category.PersonalSites, category.Reference, category.Advertising,
}

// buildCLExtra synthesizes one test-list domain outside the rank space.
func (g *generator) buildCLExtra(i int, rng *stats.RNG) *Domain {
	name := fmt.Sprintf("testlist-%04d.example", i)
	d := &Domain{
		Name:         name,
		Rank:         0, // outside the Alexa rank space
		TLD:          "example",
		Category:     clExtraCategories[rng.Intn(len(clExtraCategories))],
		Providers:    []Provider{pickHosting(rng)},
		Origin:       newOrigin(name, rng),
		GeoRules:     map[Provider]*GeoRule{},
		OnCitizenLab: true,
	}
	switch {
	case rng.Bool(0.35):
		d.Providers = []Provider{Cloudflare}
		if rng.Bool(0.18) {
			if rng.Bool(0.3) {
				// A minority of restricted test-list sites segment wide
				// swaths of the world, spreading the OONI confound far
				// beyond the sanctioned set.
				d.GeoRules[Cloudflare] = g.wideBlockRule(rng)
			} else {
				d.GeoRules[Cloudflare] = g.scatteredBlockRule(rng)
			}
		} else if rng.Bool(0.10) {
			d.GeoRules[Cloudflare] = g.challengeRule(rng, ActionCaptcha)
		}
	case rng.Bool(0.08):
		d.Providers = []Provider{Akamai}
		if rng.Bool(g.cfg.ReputationProneRate) {
			d.ReputationSensitivity = g.cfg.ReputationMin + g.cfg.ReputationSpan*rng.Float64()
		}
	case rng.Bool(0.05):
		d.Providers = []Provider{AppEngine}
		d.GAEHosted = rng.Bool(0.5)
	case rng.Bool(0.04):
		d.Providers = []Provider{CloudFront}
		if rng.Bool(0.1) {
			d.GeoRules[CloudFront] = g.wideBlockRule(rng)
		}
	}
	// Test-list content is censored far more aggressively than popular
	// sites.
	for _, cc := range CensorCountries() {
		aggr := censorAggressiveness[cc]
		if rng.Bool(clamp01(g.cfg.CensorRate * aggr / 3)) {
			if d.CensoredIn == nil {
				d.CensoredIn = map[geo.CountryCode]bool{}
			}
			d.CensoredIn[cc] = true
		}
	}
	return d
}

// assignCensorship marks which Top-10K domains national filters block.
func (g *generator) assignCensorship(rng *stats.RNG) {
	for _, d := range g.w.top10k {
		g.assignCensorshipForDomain(d, rng.Fork(d.Name))
	}
}

func (g *generator) assignCensorshipForDomain(d *Domain, rng *stats.RNG) {
	cfg := g.cfg
	// Iterate in the stable order: RNG draws must not depend on map
	// iteration.
	for _, cc := range CensorCountries() {
		aggr := censorAggressiveness[cc]
		p := cfg.NonListedCensorRate * aggr
		if d.OnCitizenLab {
			p = cfg.CensorRate * aggr / 3
		}
		if rng.Bool(clamp01(p)) {
			if d.CensoredIn == nil {
				d.CensoredIn = map[geo.CountryCode]bool{}
			}
			d.CensoredIn[cc] = true
		}
	}
}

func pickHosting(rng *stats.RNG) Provider {
	switch {
	case rng.Bool(0.50):
		return OriginNginx
	case rng.Bool(0.05):
		return OriginVarnish
	default:
		return OriginApache
	}
}

func newOrigin(name string, rng *stats.RNG) *blockpage.OriginSite {
	return blockpage.NewOriginSite(name, rng.Fork("origin"))
}

func pickCategoryTop1M(rng *stats.RNG) category.Category {
	weights := category.Top1MWeights()
	ws := make([]float64, len(weights))
	for i, cw := range weights {
		ws[i] = cw.W
	}
	return weights[rng.WeightedChoice(ws)].Cat
}

func tldWeightedPick(rng *stats.RNG) string {
	ws := make([]float64, len(tldWeights))
	for i, t := range tldWeights {
		ws[i] = t.W
	}
	return tldWeights[rng.WeightedChoice(ws)].TLD
}

// poisson draws from a Poisson distribution by summing exponential
// inter-arrival times; mean is small everywhere it is used.
func poisson(rng *stats.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	n, sum := 0, 0.0
	for {
		sum += rng.ExpFloat64()
		if sum > mean || n > 1000 {
			return n
		}
		n++
	}
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 0.95 {
		return 0.95
	}
	return p
}
