package worldgen

import (
	"geoblock/internal/blockpage"
	"geoblock/internal/category"
	"geoblock/internal/geo"
)

// Domain is one site of the simulated web, with everything the serving
// stack needs to answer a request and everything the ground-truth
// evaluation needs to score the pipeline.
type Domain struct {
	Name     string
	Rank     int // 1-based Alexa-style rank
	TLD      string
	Category category.Category

	// Providers is the serving chain, outermost first. Usually length
	// one; dual-provider domains (the paper's zales.com, fronted by both
	// Incapsula and Akamai) have two. The last entry that is not a CDN
	// is the origin server software.
	Providers []Provider

	// GAEHosted marks domains actually hosted on App Engine (platform-
	// blocked in sanctioned countries by Google itself, §4.2.1), as
	// opposed to domains that merely resolve into Google netblocks.
	GAEHosted bool

	// NSDetectable marks customers identifiable from their NS records —
	// the conservative discovery method of §3.1 that found only a
	// fraction of each CDN's customers.
	NSDetectable bool

	// Origin renders the site's real page.
	Origin *blockpage.OriginSite

	// GeoRules holds the owner's country-scoped access rules per
	// provider in the chain.
	GeoRules map[Provider]*GeoRule

	// BotSensitivity is the probability that a crawler-like client
	// (bare ZGrab/curl header sets, §3.1) is denied by the provider's
	// bot defense regardless of location.
	BotSensitivity float64

	// ResidentialChallengeRate is the per-request probability that even
	// a browser-like residential client is challenged (IP-reputation
	// noise on busy anti-abuse deployments).
	ResidentialChallengeRate float64

	// ReputationSensitivity is the domain's propensity to deny clients
	// from low-reputation address space via its Akamai/Incapsula edge —
	// the mechanism behind the paper's 707 Iran 403s (§3.1) and the 101
	// Akamai domains that showed a block page at least once but mostly
	// failed the consistency test (§5.2.2). The effective per-request
	// denial probability is this value scaled by the client country's
	// abuse-risk factor (and up-weighted for datacenter sources).
	ReputationSensitivity float64

	// DistilProtected routes the domain's bot defense through Distil
	// Networks' interstitial instead of the provider's own page.
	DistilProtected bool

	// BlocksProxies marks deployments that deny the entire residential-
	// proxy/VPN blacklist, in every country. Their block page shows on
	// every sample — the blocked-everywhere domains the paper's length
	// heuristic cannot see (Table 2's low Akamai/nginx/Distil recall)
	// and that §5.2.2 explicitly excludes from geoblocking.
	BlocksProxies bool

	// AirbnbStyle marks sites serving Airbnb's custom restriction page
	// for the sanctioned set (Iran, Syria, Crimea, North Korea).
	AirbnbStyle bool

	// Legal451 marks the rare sites that answer geographic legal
	// restrictions with RFC 7725's 451 status instead of a provider
	// block page — the paper saw exactly two such responses (§2.1).
	Legal451 bool

	// CensoredIn lists countries whose national filter blocks the
	// domain — the confound the pipeline must not misattribute.
	CensoredIn map[geo.CountryCode]bool

	// OnCitizenLab marks membership in the global Citizen Lab list;
	// such domains are excluded from probing (§3.3).
	OnCitizenLab bool

	// TimeoutBlock lists countries whose connections the site silently
	// drops — geoblocking by timeout, the detection problem §7.3 flags
	// as future work ("we also observed consistent timeouts for certain
	// websites in only some countries").
	TimeoutBlock map[geo.CountryCode]bool

	// AppLayer is the site's application-layer geo-discrimination
	// policy (nil for none): the §7.3 "much harder to measure"
	// phenomenon — features removed and prices raised for some
	// countries while the page itself loads fine.
	AppLayer *AppLayerPolicy

	// JunkRate is the per-request probability that the origin serves a
	// shared junk page instead of content (maintenance interstitials,
	// default vhost pages, SPA shells) — the 200-status noise that
	// dominates the length-outlier clusters (§4.1.3).
	JunkRate float64

	// RedirectHops is the number of same-site hops (http→https,
	// apex→www) before content; RedirectLoop marks the pathological
	// sites that exceed any sane redirect limit.
	RedirectHops int
	RedirectLoop bool

	// Unreachable marks domains that never successfully respond (286 of
	// the Top 10K, §4.1.1); LuminatiRestricted marks the ones the proxy
	// network itself refuses to fetch (X-Luminati-Error, 13 domains).
	Unreachable        bool
	LuminatiRestricted bool
}

// AppLayerPolicy describes application-layer geo-discrimination.
type AppLayerPolicy struct {
	// RestrictedIn lists countries that get the degraded page: commerce
	// features removed, a region notice inserted.
	RestrictedIn map[geo.CountryCode]bool
	// PriceMarkup maps countries to a price multiplier (1.0 elsewhere):
	// geographic price discrimination.
	PriceMarkup map[geo.CountryCode]float64
}

// TimeoutBlockedIn reports whether the site drops connections from loc.
func (d *Domain) TimeoutBlockedIn(loc geo.Location) bool {
	return d.TimeoutBlock[loc.Country]
}

// Hosting returns the origin server software at the end of the chain.
func (d *Domain) Hosting() Provider {
	for i := len(d.Providers) - 1; i >= 0; i-- {
		if !d.Providers[i].IsCDN() {
			return d.Providers[i]
		}
	}
	return OriginApache
}

// FrontedBy reports whether p appears anywhere in the serving chain.
func (d *Domain) FrontedBy(p Provider) bool {
	for _, q := range d.Providers {
		if q == p {
			return true
		}
	}
	return false
}

// GeoBlockedIn reports whether any provider in the chain hard-blocks a
// client at loc at time clock, and by which provider. Challenges do not
// count: the paper's headline metric is total denial of access.
func (d *Domain) GeoBlockedIn(loc geo.Location, clock int64) (Provider, bool) {
	for _, p := range d.Providers {
		if p == AppEngine && d.GAEHosted && AppEngineBlocked(loc) {
			return AppEngine, true
		}
		if r, ok := d.GeoRules[p]; ok && r.Action == ActionBlock && r.Applies(loc, clock) {
			return p, true
		}
	}
	if d.AirbnbStyle && AirbnbBlocked(loc) {
		return d.Providers[0], true
	}
	return "", false
}

// ExplicitGeoBlockedIn reports whether the denial at loc would present
// an explicit geoblock page (the five classes of §4.1.3) rather than an
// ambiguous one.
func (d *Domain) ExplicitGeoBlockedIn(loc geo.Location, clock int64) bool {
	p, ok := d.GeoBlockedIn(loc, clock)
	if !ok {
		return false
	}
	if d.AirbnbStyle && AirbnbBlocked(loc) {
		return true
	}
	switch p {
	case Cloudflare, CloudFront, AppEngine, Baidu:
		return true
	}
	return false
}

// AppEngineBlocked reports whether loc falls under Google's App Engine
// platform block: Cuba, Iran, Syria, Sudan, North Korea, and Crimea.
// The edge (internal/cdn) serves by it, so the ground truth and the
// edge's answers cannot disagree.
func AppEngineBlocked(loc geo.Location) bool {
	switch loc.Country {
	case "CU", "IR", "SY", "SD", "KP":
		return true
	}
	return loc.Region == geo.RegionCrimea
}

// AirbnbBlocked reports whether loc falls under Airbnb's stated policy:
// Crimea, Iran, Syria, and North Korea. The edge serves by it too.
func AirbnbBlocked(loc geo.Location) bool {
	switch loc.Country {
	case "IR", "SY", "KP":
		return true
	}
	return loc.Region == geo.RegionCrimea
}
