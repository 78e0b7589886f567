// Package ooni synthesizes an OONI-style censorship-measurement corpus
// over the simulated Internet and runs the paper's §7.1 confound
// analysis: how often do CDN geoblock pages appear in data collected to
// measure *censorship*, and how often is the control measurement — made
// over Tor from datacenter address space — itself blocked?
//
// OONI's web-connectivity test fetches each Citizen Lab test-list
// domain from a volunteer's device and compares it against a control
// fetch; the saved report keeps the local response body but only the
// status of the control. Both properties are mirrored here.
package ooni

import (
	"sort"

	"geoblock/internal/blockpage"
	"geoblock/internal/censor"
	"geoblock/internal/fingerprint"
	"geoblock/internal/geo"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

// Measurement is one saved web-connectivity report, reduced to the
// fields the confound analysis reads.
type Measurement struct {
	Domain  string
	Country geo.CountryCode

	// Local result.
	LocalErr    bool
	LocalStatus int16
	LocalKind   blockpage.Kind // fingerprint classification of the body

	// Control result (status only — OONI reports do not retain the
	// control body, §7.1).
	ControlErr    bool
	ControlStatus int16

	// Anomaly is OONI's verdict: local differs from control.
	Anomaly bool
}

// Corpus is the synthesized measurement set.
type Corpus struct {
	Measurements []Measurement
	Domains      []string // the global test list actually probed
	Countries    []geo.CountryCode
}

// Config tunes corpus synthesis.
type Config struct {
	// MeasurementsPerPair is how many reports each (country, domain)
	// pair accumulates.
	MeasurementsPerPair int
	// Countries to draw volunteers from; nil = every measurable country.
	Countries []geo.CountryCode
	// Concurrency bounds parallel volunteer simulation; zero takes
	// scanner.DefaultConcurrency().
	Concurrency int
}

// Synthesize runs the volunteer fleet: for every test-list domain that
// exists in the world, a volunteer in each country fetches it and a
// control fetch runs from a Tor exit in datacenter address space.
func Synthesize(w *worldgen.World, cfg Config) *Corpus {
	if cfg.MeasurementsPerPair <= 0 {
		cfg.MeasurementsPerPair = 1
	}
	countries := cfg.Countries
	if countries == nil {
		countries = w.Geo.Measurable()
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = scanner.DefaultConcurrency()
	}

	// Probe only list entries that resolve in the simulated world.
	var domains []string
	for _, name := range w.CitizenLab.Global {
		if _, ok := w.Lookup(name); ok {
			domains = append(domains, name)
		}
	}
	sort.Strings(domains)

	cls := fingerprint.NewClassifier()
	corpus := &Corpus{Domains: domains, Countries: countries}

	// Tor control exit: a U.S. datacenter address with a battered
	// reputation (Tor exits share fate with abusers — Khattak et al.,
	// cited in §8).
	var torIP geo.IP
	for n := uint64(99); ; n++ {
		ip, err := w.Geo.DatacenterIP("US", n)
		if err != nil {
			panic(err)
		}
		if w.Geo.IsAnonymizer(ip) {
			torIP = ip
			break
		}
	}
	torStack := vnet.NewStack(w, torIP)

	perCountry := make([][]Measurement, len(countries))
	sem := make(chan struct{}, cfg.Concurrency)
	done := make(chan int)
	for ci := range countries {
		go func(ci int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			perCountry[ci] = measureCountry(w, cls, torStack, countries[ci], domains, cfg.MeasurementsPerPair)
			done <- ci
		}(ci)
	}
	for range countries {
		<-done
	}
	for _, ms := range perCountry {
		corpus.Measurements = append(corpus.Measurements, ms...)
	}
	return corpus
}

func measureCountry(w *worldgen.World, cls *fingerprint.Classifier, torStack *vnet.Stack, cc geo.CountryCode, domains []string, perPair int) []Measurement {
	ip, err := w.Geo.HostIP(cc, stats.Mix64(stats.Hash(string(cc)))%100000)
	if err != nil {
		return nil
	}
	local := vnet.NewStack(w, ip)
	out := make([]Measurement, 0, len(domains)*perPair)
	for _, domain := range domains {
		for k := 0; k < perPair; k++ {
			m := Measurement{Domain: domain, Country: cc}
			seed := stats.Mix64(stats.Hash(domain) ^ stats.Hash(string(cc)) ^ uint64(k+1))

			status, kind, lerr := fetch(local, cls, domain, seed, false)
			m.LocalErr = lerr
			m.LocalStatus = status
			m.LocalKind = kind

			cstatus, _, cerr := fetch(torStack, cls, domain, seed^0x70e, true)
			m.ControlErr = cerr
			m.ControlStatus = cstatus

			m.Anomaly = anomaly(m)
			out = append(out, m)
		}
	}
	return out
}

// fetch performs one measurement fetch. Control fetches use OONI's
// bare client fingerprint; local fetches use a browser-like set.
func fetch(stack *vnet.Stack, cls *fingerprint.Classifier, domain string, seed uint64, control bool) (int16, blockpage.Kind, bool) {
	headers := map[string]string{"User-Agent": "Mozilla/5.0 (Windows NT 6.1; rv:45.0) Gecko/20100101 Firefox/45.0"}
	if !control {
		headers["Accept"] = "text/html,application/xhtml+xml"
		headers["Accept-Language"] = "en-US,en;q=0.5"
	}
	var r vnet.Reply
	if scanner.Fetch(stack.World, stack, domain, seed, headers, &r) != scanner.ErrNone {
		return 0, blockpage.KindNone, true
	}
	kind := blockpage.KindNone
	if r.Status != 200 {
		if body, err := r.Body(); err == nil {
			kind = cls.Classify(body)
		}
	}
	return int16(r.Status), kind, false
}

// anomaly reproduces OONI's comparison: a measurement is anomalous when
// the local fetch failed or returned a different status class than the
// control.
func anomaly(m Measurement) bool {
	if m.LocalErr && !m.ControlErr {
		return true
	}
	if m.LocalErr || m.ControlErr {
		return false // both failed, or control-only failure: inconclusive
	}
	return (m.LocalStatus >= 400) != (m.ControlStatus >= 400)
}

// Analysis is the §7.1 readout.
type Analysis struct {
	TotalMeasurements int

	// Geoblocking signals inside "censorship" data.
	GeoblockCases     int // measurements matching an explicit geoblock page
	GeoblockCountries int // countries where that happened
	GeoblockDomains   int // unique test-list domains affected
	TestListSize      int

	// Censorship countries where geoblock pages also appear.
	CensorCountriesWithCases int

	// Control confusion for Akamai/Cloudflare-fronted domains:
	// measurements whose control returned 403 vs. measurements where
	// only the local side was blocked.
	ControlBlocked403    int
	LocalBlockedCtrlOK   int
	AnomalousAll         int
	AnomaliesActuallyGeo int // anomalies whose local body is a geoblock page

	// CasesByCountry counts geoblock-page cases per country, and
	// CasesByKind per explicit page class.
	CasesByCountry map[geo.CountryCode]int
	CasesByKind    map[blockpage.Kind]int
}

// Analyze computes the confound analysis over the corpus.
func Analyze(w *worldgen.World, corpus *Corpus) *Analysis {
	a := &Analysis{
		TotalMeasurements: len(corpus.Measurements),
		TestListSize:      len(corpus.Domains),
	}
	geoCountries := map[geo.CountryCode]bool{}
	geoDomains := map[string]bool{}
	censorCountriesWith := map[geo.CountryCode]bool{}
	a.CasesByCountry = map[geo.CountryCode]int{}
	a.CasesByKind = map[blockpage.Kind]int{}

	for _, m := range corpus.Measurements {
		explicitGeo := m.LocalKind.Explicit()
		if explicitGeo {
			a.GeoblockCases++
			a.CasesByCountry[m.Country]++
			a.CasesByKind[m.LocalKind]++
			geoCountries[m.Country] = true
			geoDomains[m.Domain] = true
			if censor.CensorsAnything(m.Country) {
				censorCountriesWith[m.Country] = true
			}
		}
		if m.Anomaly {
			a.AnomalousAll++
			if explicitGeo {
				a.AnomaliesActuallyGeo++
			}
		}

		// Akamai/Cloudflare infrastructure subset for the control
		// comparison.
		if d, ok := w.Lookup(m.Domain); ok &&
			(d.FrontedBy(worldgen.Akamai) || d.FrontedBy(worldgen.Cloudflare)) {
			if !m.ControlErr && m.ControlStatus == 403 {
				a.ControlBlocked403++
			}
			if !m.LocalErr && m.LocalStatus >= 400 && !m.ControlErr && m.ControlStatus == 200 {
				a.LocalBlockedCtrlOK++
			}
		}
	}
	a.GeoblockCountries = len(geoCountries)
	a.GeoblockDomains = len(geoDomains)
	a.CensorCountriesWithCases = len(censorCountriesWith)
	return a
}
