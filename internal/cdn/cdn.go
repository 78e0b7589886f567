// Package cdn implements the serving side of the simulated Internet:
// for each provider the paper studies, the edge logic that decides —
// given a client's geolocated address, its header fingerprint, and the
// site owner's access rules — whether to serve the origin page, the
// provider's block page, or a challenge, with the provider's
// characteristic response headers.
//
// Everything the paper's detection pipeline keys on happens here: the
// explicit geoblock pages (Cloudflare, CloudFront, App Engine, Baidu,
// Airbnb), the ambiguous shared block/bot pages (Akamai, Incapsula),
// interactive challenges (captchas, the Cloudflare JavaScript page),
// the identifying headers used for population discovery (CF-RAY,
// X-Amz-Cf-Id, X-Iinfo, the Akamai Pragma debug headers), and the
// GeoIP noise that keeps observed blocking below 100% agreement.
package cdn

import (
	"fmt"
	"net/http"
	"strconv"

	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// Request is one client request as the edge sees it.
type Request struct {
	Domain     *worldgen.Domain
	Host       string // host as requested (may carry a www. prefix)
	Path       string
	Method     string
	Scheme     string // "http" or "https"
	ClientIP   geo.IP
	Header     http.Header // read, never written; Response.Header consults it again
	Clock      int64
	SampleSeed uint64 // drives per-request randomness, deterministic per sample
}

// Response is the edge's answer. Page records the ground truth of what
// was served (never exposed on the wire).
//
// Rendering is lazy. The origin page is built only when Body is
// called, and the response headers (provider signatures, Content-Type,
// Content-Length, Location) only when Header is, so status- and
// length-only consumers pay for neither. Block pages are rendered
// eagerly, because their length is the body's length.
type Response struct {
	Status   int
	BodyLen  int
	Page     blockpage.Kind
	Redirect string // non-empty for 3xx, the Location value

	body    string                // the rendered body, unless origin is set
	origin  *blockpage.OriginSite // the origin page, rendered on demand
	variant blockpage.PageVariant
	seed    uint64

	// The inputs of the provider headers.
	domain    *worldgen.Domain
	reqHeader http.Header
	ray       uint64
	nonce     uint32
}

// Body renders the response body.
func (r Response) Body() string {
	if r.origin != nil {
		return r.origin.RenderVariant(r.seed, r.variant)
	}
	return r.body
}

// Header builds the response headers: the fronting providers'
// identifying headers, Content-Type, Content-Length, and Location on a
// redirect. Each call returns a fresh map.
func (r Response) Header() http.Header {
	h := make(http.Header)
	if r.domain == nil {
		return h
	}
	vars := blockpage.Vars{Domain: r.domain.Name, RayID: rayID(r.ray), Nonce: nonceHex(r.nonce)}
	for _, p := range r.domain.Providers {
		addProviderHeaders(h, p, r.reqHeader, vars)
	}
	h.Set("Content-Type", "text/html; charset=utf-8")
	if r.Redirect != "" {
		h.Set("Location", r.Redirect)
	}
	h.Set("Content-Length", strconv.Itoa(r.BodyLen))
	return h
}

// edgeGeoIPErrorPermille is the per-address probability (in 1/1000)
// that a provider's GeoIP database misplaces a residential address into
// a neighboring country — one of the paper's explanations for sub-100%
// block-page agreement (§4.2). The error is *sticky per address*: a
// GeoIP database does not flip between requests, so disagreement
// appears only when consecutive samples ride different exits.
const edgeGeoIPErrorPermille = 10

// exchange is one request on its way through the serving chain. The
// RayID and nonce are drawn up front but formatted only when a page or
// header shows them.
type exchange struct {
	w     *worldgen.World
	req   Request
	loc   geo.Location
	ray   uint64
	nonce uint32
}

// vars formats the template variables block pages substitute.
func (x *exchange) vars() blockpage.Vars {
	return blockpage.Vars{
		Domain:      x.req.Domain.Name,
		Path:        x.req.Path,
		ClientIP:    x.req.ClientIP.String(),
		CountryName: x.w.Geo.Name(x.loc.Country),
		RayID:       rayID(x.ray),
		Nonce:       nonceHex(x.nonce),
	}
}

// page builds a response whose body is already rendered.
func (x *exchange) page(status int, kind blockpage.Kind, body, redirect string) Response {
	return Response{
		Status:    status,
		BodyLen:   len(body),
		Page:      kind,
		Redirect:  redirect,
		body:      body,
		domain:    x.req.Domain,
		reqHeader: x.req.Header,
		ray:       x.ray,
		nonce:     x.nonce,
	}
}

// block renders kind's block page.
func (x *exchange) block(kind blockpage.Kind) Response {
	return x.page(kind.Status(), kind, blockpage.Render(kind, x.vars()), "")
}

func rayID(ray uint64) string      { return fmt.Sprintf("%016x", ray) }
func nonceHex(nonce uint32) string { return fmt.Sprintf("%08x", nonce) }

const movedBody = "<html><head><title>301 Moved Permanently</title></head><body>moved</body></html>\n"

// Serve answers req according to the domain's serving chain.
func Serve(w *worldgen.World, req Request) Response {
	d := req.Domain
	rng := stats.NewRNG(stats.Mix64(req.SampleSeed) ^ hashName(d.Name))

	loc, ok := w.Geo.Locate(req.ClientIP)
	if !ok {
		loc = geo.Location{}
	}
	x := exchange{w: w, req: req, loc: maybeMisgeolocate(w, loc, req.ClientIP)}
	// Both draws come first, whatever is served, so the access-control
	// draws below always see the same stream position.
	x.ray = rng.Uint64()
	x.nonce = uint32(rng.Uint64())

	// Access control runs at first contact, before any redirect: a
	// blocked client never sees the redirect chain.
	if resp, denied := applyAccessControl(&x, rng); denied {
		return resp
	}

	// Same-site redirect hops: http→https, then apex→www.
	if next := redirectLocation(d, req); next != "" {
		return x.page(301, blockpage.KindNone, movedBody, next)
	}

	// Flaky backends intermittently serve a shared junk page
	// (maintenance interstitial, default vhost page) — 200-status
	// short-page noise for the outlier pipeline.
	if d.JunkRate > 0 && rng.Bool(d.JunkRate) {
		kinds := blockpage.JunkKinds()
		k := kinds[hashName(d.Name)%uint64(len(kinds))]
		return x.page(200, blockpage.KindNone, blockpage.RenderJunk(k, d.Name, nonceHex(x.nonce)[:6]), "")
	}

	// Origin content — possibly an application-layer variant: the page
	// loads with a 200 everywhere, but some countries lose features or
	// see marked-up prices (§7.3).
	variant := blockpage.PageVariant{}
	if d.AppLayer != nil {
		if d.AppLayer.RestrictedIn[x.loc.Country] {
			variant.Restricted = true
		}
		if f, ok := d.AppLayer.PriceMarkup[x.loc.Country]; ok {
			variant.PriceFactor = f
		}
	}
	resp := x.page(200, blockpage.KindNone, "", "")
	resp.BodyLen = d.Origin.VariantLength(req.SampleSeed, variant)
	resp.origin, resp.variant, resp.seed = d.Origin, variant, req.SampleSeed
	return resp
}

// applyAccessControl walks the serving chain and returns the denial
// response if any layer refuses the request.
func applyAccessControl(x *exchange, rng *stats.RNG) (Response, bool) {
	w, d, req, loc := x.w, x.req.Domain, x.req, x.loc
	crawler := crawlerLike(req.Header)

	// Proxy-blacklist blocking fires before anything else: these
	// deployments deny the residential-proxy address lists wholesale,
	// in every country — the blocked-everywhere behaviour that defeats
	// the representative-length heuristic (Table 2) and that the
	// consistency analysis must exclude (§5.2.2).
	if d.BlocksProxies && w.Geo.IsProxyExit(req.ClientIP) {
		if d.DistilProtected {
			return x.block(blockpage.DistilCaptcha), true
		}
		switch {
		case d.FrontedBy(worldgen.Akamai):
			return x.block(blockpage.Akamai), true
		case d.FrontedBy(worldgen.Incapsula):
			return x.block(blockpage.Incapsula), true
		case d.Hosting() == worldgen.OriginVarnish:
			return x.block(blockpage.Varnish), true
		default:
			return x.block(blockpage.Nginx), true
		}
	}

	for _, p := range d.Providers {
		// Platform-level App Engine block (§4.2.1): Google itself, not
		// the customer, denies sanctioned locations.
		if p == worldgen.AppEngine && d.GAEHosted && gaeBlocked(loc) {
			return x.block(blockpage.AppEngine), true
		}

		if rule, ok := d.GeoRules[p]; ok && rule.Applies(loc, req.Clock) {
			switch rule.Action {
			case worldgen.ActionBlock:
				if d.Legal451 {
					// RFC 7725: the operator states the legal basis.
					return x.block(blockpage.Legal451), true
				}
				return x.block(blockKind(p)), true
			case worldgen.ActionCaptcha:
				return x.block(captchaKind(d, p)), true
			case worldgen.ActionJS:
				return x.block(blockpage.CloudflareJS), true
			}
		}

		// Bot defense: crawler-like fingerprints are denied with the
		// same page the provider uses for everything else — the §3.1
		// false-positive machine.
		if crawler && d.BotSensitivity > 0 && rng.Bool(d.BotSensitivity) {
			switch p {
			case worldgen.Akamai:
				return x.block(blockpage.Akamai), true
			case worldgen.Incapsula:
				return x.block(blockpage.Incapsula), true
			case worldgen.Cloudflare:
				return x.block(blockpage.CloudflareCaptcha), true
			}
		}

		// Anonymizer challenge: Cloudflare-fronted sites challenge
		// known Tor/VPN exit addresses (the tool-vs-Tor fate sharing of
		// Khattak et al., §8); the verdict is sticky per (domain,
		// address). The challenge page carries a 403, which is why OONI
		// controls made over Tor so often look "blocked" (§7.1).
		if p == worldgen.Cloudflare && w.Geo.IsAnonymizer(req.ClientIP) {
			draw := float64(stats.Mix64(hashName(d.Name)^uint64(req.ClientIP)^0x7042)>>11) / (1 << 53)
			if draw < 0.80 {
				return x.block(blockpage.CloudflareCaptcha), true
			}
		}

		// IP-reputation denial: reputation-prone Akamai/Incapsula
		// deployments deny sources from abuse-heavy address space at a
		// rate scaled by the client's country risk (and higher for
		// datacenter sources). The verdict is *sticky per (domain,
		// client address)* — blacklists do not flip between requests —
		// so a VPS revisit reproduces the block (§3.1's "genuine"
		// pairs) while residential measurements through rotating exits
		// see it intermittently. The page is the same ambiguous one the
		// provider uses for geo rules, which is why the paper needs the
		// consistency analysis of §5.2.2 to separate the two.
		if d.ReputationSensitivity > 0 && (p == worldgen.Akamai || p == worldgen.Incapsula) {
			risk := countryRiskFactor(w, loc, w.Geo.IsDatacenter(req.ClientIP))
			if w.Geo.IsAnonymizer(req.ClientIP) {
				risk = 0.88
			}
			draw := float64(stats.Mix64(hashName(d.Name)^uint64(req.ClientIP)^0x5ca1ab1e)>>11) / (1 << 53)
			if draw < d.ReputationSensitivity*risk {
				if p == worldgen.Akamai {
					return x.block(blockpage.Akamai), true
				}
				return x.block(blockpage.Incapsula), true
			}
		}
	}

	// Airbnb's custom application-level restriction page.
	if d.AirbnbStyle && airbnbBlocked(loc) {
		return x.block(blockpage.Airbnb), true
	}

	// IP-reputation noise: heavily defended sites challenge even
	// browser-like residential clients at a low per-request rate.
	if d.ResidentialChallengeRate > 0 && rng.Bool(d.ResidentialChallengeRate) {
		if d.DistilProtected {
			return x.block(blockpage.DistilCaptcha), true
		}
		if d.FrontedBy(worldgen.Cloudflare) {
			return x.block(blockpage.CloudflareCaptcha), true
		}
		return x.block(blockpage.DistilCaptcha), true
	}

	return Response{}, false
}

// blockKind maps a provider to its hard-block page.
func blockKind(p worldgen.Provider) blockpage.Kind {
	switch p {
	case worldgen.Cloudflare:
		return blockpage.Cloudflare
	case worldgen.Akamai:
		return blockpage.Akamai
	case worldgen.CloudFront:
		return blockpage.CloudFront
	case worldgen.AppEngine:
		return blockpage.AppEngine
	case worldgen.Incapsula:
		return blockpage.Incapsula
	case worldgen.Baidu:
		return blockpage.Baidu
	case worldgen.Soasta:
		return blockpage.Soasta
	case worldgen.OriginNginx:
		return blockpage.Nginx
	case worldgen.OriginVarnish:
		return blockpage.Varnish
	default:
		return blockpage.Nginx
	}
}

// captchaKind maps a provider (and the Distil overlay) to its
// interactive challenge page.
func captchaKind(d *worldgen.Domain, p worldgen.Provider) blockpage.Kind {
	if d.DistilProtected {
		return blockpage.DistilCaptcha
	}
	switch p {
	case worldgen.Cloudflare:
		return blockpage.CloudflareCaptcha
	case worldgen.Baidu:
		return blockpage.BaiduCaptcha
	default:
		return blockpage.DistilCaptcha
	}
}

// countryRiskFactor scales reputation-based denials by the abuse
// profile of the client's network: sanctioned countries' address space
// carries the worst reputations, high-risk countries follow, everyone
// else sees only background noise, and datacenter sources are penalized
// on top.
func countryRiskFactor(w *worldgen.World, loc geo.Location, datacenter bool) float64 {
	risk := 0.035
	switch loc.Country {
	case "IR", "SY", "SD", "CU", "KP":
		risk = 0.60
	default:
		if c, ok := w.Geo.Country(loc.Country); ok && c.HighRisk {
			risk = 0.18
		}
	}
	if datacenter {
		risk *= 1.6
		if risk > 0.95 {
			risk = 0.95
		}
	}
	return risk
}

// crawlerLike implements the bot-fingerprint heuristic the paper's
// tooling fought: merely setting User-Agent is insufficient (§3.2); a
// browser-like request carries Accept, Accept-Language and a Mozilla
// UA.
func crawlerLike(h http.Header) bool {
	return first(h, "User-Agent") == "" || first(h, "Accept") == "" || first(h, "Accept-Language") == ""
}

// first is h.Get for a key already in canonical form: it indexes the
// map directly instead of re-canonicalizing the key on every request.
func first(h http.Header, canonicalKey string) string {
	if v := h[canonicalKey]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// redirectLocation computes the next hop of the domain's same-site
// redirect chain, or "" when content should be served.
func redirectLocation(d *worldgen.Domain, req Request) string {
	if d.RedirectLoop {
		// Pathological: bounce between two paths forever.
		if req.Path == "/a" {
			return fmt.Sprintf("%s://%s/b", req.Scheme, req.Host)
		}
		return fmt.Sprintf("%s://%s/a", req.Scheme, req.Host)
	}
	www := len(req.Host) > 4 && req.Host[:4] == "www."
	switch {
	case d.RedirectHops >= 1 && req.Scheme == "http":
		return "https://" + req.Host + req.Path
	case d.RedirectHops >= 2 && !www:
		return "https://www." + req.Host + req.Path
	}
	return ""
}

// addProviderHeaders attaches each provider's identifying headers: the
// discovery signals of §5.1.1.
func addProviderHeaders(h http.Header, p worldgen.Provider, reqHeader http.Header, vars blockpage.Vars) {
	switch p {
	case worldgen.Cloudflare:
		h.Set("Server", "cloudflare")
		h.Set("CF-RAY", vars.RayID[:12]+"-SIM")
	case worldgen.CloudFront:
		h.Set("Via", "1.1 "+vars.Nonce+".cloudfront.net (CloudFront)")
		h.Set("X-Amz-Cf-Id", vars.RayID+vars.Nonce)
		h.Set("X-Cache", "Miss from cloudfront")
	case worldgen.Incapsula:
		h.Set("X-Iinfo", fmt.Sprintf("9-%s 0NNN RT", vars.Nonce))
		h.Set("X-CDN", "Incapsula")
	case worldgen.Akamai:
		// Akamai identifies itself only when poked with the Pragma
		// debug header (§5.1.1).
		if wantsAkamaiDebug(reqHeader) {
			h.Set("X-Cache", "TCP_MISS from a23-"+vars.Nonce[:4]+".deploy.akamaitechnologies.com (AkamaiGHost/9.5.0)")
			h.Set("X-Check-Cacheable", "YES")
			h.Set("X-Cache-Key", "/L/1234/567890/1d/origin."+vars.Domain+"/")
		}
	case worldgen.Baidu:
		h.Set("Server", "yunjiasu-nginx")
	case worldgen.Soasta:
		h.Set("X-1-Edge", "soasta-mpulse")
	case worldgen.AppEngine:
		// No identifying header: App Engine customers are discovered by
		// netblock (§5.1.1).
	case worldgen.OriginNginx:
		h.Set("Server", "nginx/1.14.0")
	case worldgen.OriginVarnish:
		h.Set("Via", "1.1 varnish")
		h.Set("X-Varnish", vars.Nonce)
	case worldgen.OriginApache:
		h.Set("Server", "Apache/2.4.29 (Ubuntu)")
	}
}

// wantsAkamaiDebug reports whether the client sent the Akamai Pragma
// debug directives.
func wantsAkamaiDebug(h http.Header) bool {
	if h == nil {
		return false
	}
	for _, v := range h.Values("Pragma") {
		if containsFold(v, "akamai-x-cache-on") || containsFold(v, "akamai-x-get-cache-key") {
			return true
		}
	}
	return false
}

func containsFold(s, sub string) bool {
	n := len(sub)
	if n == 0 {
		return true
	}
	for i := 0; i+n <= len(s); i++ {
		ok := true
		for j := 0; j < n; j++ {
			a, b := s[i+j], sub[j]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// maybeMisgeolocate perturbs the edge's view of the client location for
// the sticky fraction of addresses the GeoIP database has wrong, moving
// them to an adjacent country in the table.
func maybeMisgeolocate(w *worldgen.World, loc geo.Location, ip geo.IP) geo.Location {
	if loc.Country == "" {
		return loc
	}
	h := stats.Mix64(uint64(ip) ^ 0x6e0c817)
	if h%1000 >= edgeGeoIPErrorPermille {
		return loc
	}
	cs := w.Geo.Countries()
	for i, c := range cs {
		if c.Code == loc.Country {
			j := (i + 1 + int(h>>32)%5) % len(cs)
			return geo.Location{Country: cs[j].Code}
		}
	}
	return loc
}

// gaeBlocked mirrors Google's platform policy: Cuba, Iran, Syria,
// Sudan, North Korea, Crimea.
func gaeBlocked(loc geo.Location) bool {
	switch loc.Country {
	case "CU", "IR", "SY", "SD", "KP":
		return true
	}
	return loc.Region == geo.RegionCrimea
}

// airbnbBlocked mirrors Airbnb's stated policy: Crimea, Iran, Syria,
// North Korea.
func airbnbBlocked(loc geo.Location) bool {
	switch loc.Country {
	case "IR", "SY", "KP":
		return true
	}
	return loc.Region == geo.RegionCrimea
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
