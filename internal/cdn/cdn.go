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
	"net/http"
	"slices"
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
	// MaxHops is how many requests the client sends along the site's
	// same-site redirect chain: the edge follows the chain for it until
	// it reaches the page or the MaxHops-th request, and answers that
	// hop. Zero, like one, answers the first hop alone.
	MaxHops int

	// Callers that send many requests from one address, or with one
	// header set, resolve these once and set them; Serve computes what
	// is left unset.

	// Loc is the edge's GeoIP view of ClientIP, as Locate computes it,
	// when Located is set.
	Loc     geo.Location
	Located bool
	// Class is what the anti-abuse address lists say of ClientIP, as
	// geo.DB.Classify computes it, when Classified is set.
	Class      geo.Class
	Classified bool
	// Fingerprint is the edge's bot verdict on Header, as Classify
	// computes it.
	Fingerprint Fingerprint
	// NameHash is stats.Hash(Domain.Name). A hash that is 0 in truth
	// reads as unset and is recomputed, to the same 0.
	NameHash uint64
}

// Fingerprint is the edge's bot verdict on a request's header set.
type Fingerprint uint8

const (
	// Unclassified leaves the verdict to Serve.
	Unclassified Fingerprint = iota
	// Browser is a browser-like set: a User-Agent, Accept and
	// Accept-Language.
	Browser
	// Crawler is any other set; bot defenses may deny it (§3.2).
	Crawler
)

// Classify is the edge's bot verdict on the header set h.
func Classify(h http.Header) Fingerprint {
	if crawlerLike(h) {
		return Crawler
	}
	return Browser
}

// hop is a same-site redirect's target, relative to the hop that
// answers it: Scheme://Host+Path, where Host is that hop's host, with
// "www." in front when www is set. Its zero value is no redirect.
type hop struct {
	scheme string
	www    bool
	path   string
}

// Response is the edge's answer to the last request of the chain it
// followed (Hops of them). Page records the ground truth of what was
// served (never exposed on the wire).
//
// Rendering is lazy. The block, origin and junk pages are built only
// when Body is called (their lengths come from the templates), the
// redirect's Location only when Location is, and the response headers
// (provider signatures, Content-Type, Content-Length, Location) only
// when Header is, so status- and length-only consumers pay for none of
// them.
type Response struct {
	Status  int
	BodyLen int
	Page    blockpage.Kind
	// Hops is how many requests the answer took: the first, plus each
	// same-site redirect the edge followed within Request.MaxHops.
	Hops int

	origin  *blockpage.OriginSite // the origin page, rendered on demand
	variant blockpage.PageVariant
	seed    uint64
	host    string // the request's host
	www     bool   // the last hop's host is host with "www." in front
	next    hop    // the last hop's redirect target

	// junk marks a junk page of kind junkKind, rendered on demand.
	junk     bool
	junkKind blockpage.JunkKind

	// The inputs of the provider headers and, with the block page's
	// own (Page), of the block page.
	domain    *worldgen.Domain
	reqHeader http.Header
	ray       uint64
	nonce     uint32
	path      string // the request's path
	client    geo.IP
	country   string // the name of the client's country, as the edge locates it
}

// Redirect reports whether the response is a redirect.
func (r Response) Redirect() bool { return r.next.scheme != "" }

// Location renders a redirect's Location value, "" when the response
// is not a redirect.
func (r Response) Location() string {
	switch {
	case r.next.scheme == "":
		return ""
	case r.www || r.next.www:
		return r.next.scheme + "://www." + r.host + r.next.path
	}
	return r.next.scheme + "://" + r.host + r.next.path
}

// Body renders the response body.
func (r Response) Body() string {
	switch {
	case r.Page != blockpage.KindNone:
		page, _ := r.blockPage(true)
		return page
	case r.origin != nil:
		return r.origin.RenderVariant(r.seed, r.variant)
	case r.junk:
		var b [nonceLen]byte
		return blockpage.RenderJunk(r.junkKind, r.domain.Name, string(junkToken(b[:0], r.nonce)))
	case r.Redirect():
		return movedBody
	}
	return ""
}

// Header builds the response headers: the fronting providers'
// identifying headers, Content-Type, Content-Length, and Location on a
// redirect. Each call returns a fresh map.
func (r Response) Header() http.Header {
	h := make(http.Header)
	if r.domain == nil {
		return h
	}
	var b [rayLen + nonceLen]byte
	f := string(appendRayNonce(b[:0], r.ray, r.nonce))
	vars := blockpage.Vars{Domain: r.domain.Name, RayID: f[:rayLen], Nonce: f[rayLen:]}
	for _, p := range r.domain.Providers {
		addProviderHeaders(h, p, r.reqHeader, vars)
	}
	h.Set("Content-Type", "text/html; charset=utf-8")
	if loc := r.Location(); loc != "" {
		h.Set("Location", loc)
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

// exchange is what the serving chain works out about one request. The
// RayID and nonce are drawn up front but formatted only when a page or
// header shows them. It holds no pointer to the request or the
// response, so neither has to live on the heap.
type exchange struct {
	w          *worldgen.World
	loc        geo.Location
	client     geo.IP
	class      geo.Class // set once classified
	classified bool
	name       uint64 // stats.Hash of the domain's name
	ray        uint64
	nonce      uint32
}

// clientClass is what the anti-abuse address lists say of the client.
// A request that does not carry the class has it looked up here, once,
// at the first check that reads it: most chains run none.
func (x *exchange) clientClass() geo.Class {
	if !x.classified {
		x.class, x.classified = x.w.Geo.Classify(x.client), true
	}
	return x.class
}

// blockPage returns block page r.Page, rendered only when render is
// set, and its length. The page is its one allocation: Render and Len
// keep none of their Vars, so the formatted ray ID, nonce and client
// address, each string under 32 bytes, stay on the stack.
func (r Response) blockPage(render bool) (string, int) {
	var ids [rayLen + nonceLen]byte
	var ip [len("255.255.255.255")]byte
	hex := string(appendRayNonce(ids[:0], r.ray, r.nonce))
	v := blockpage.Vars{
		Domain:      r.domain.Name,
		Path:        r.path,
		ClientIP:    string(r.client.Addr().AppendTo(ip[:0])),
		CountryName: r.country,
		RayID:       hex[:rayLen],
		Nonce:       hex[rayLen:],
	}
	if !render {
		return "", blockpage.Len(r.Page, v)
	}
	page := blockpage.Render(r.Page, v)
	return page, len(page)
}

// The ray ID is 16 hex digits and the nonce 8: all the bits of each.
const (
	rayLen   = 16
	nonceLen = 8
)

// appendRayNonce appends the ray ID and then the nonce to dst.
func appendRayNonce(dst []byte, ray uint64, nonce uint32) []byte {
	return blockpage.AppendHex(blockpage.AppendHex(dst, ray, rayLen), uint64(nonce), nonceLen)
}

// junkToken appends a junk page's per-site token to dst: the nonce's
// first six hex digits.
func junkToken(dst []byte, nonce uint32) []byte {
	return blockpage.AppendHex(dst, uint64(nonce), nonceLen)[:len(dst)+6]
}

const movedBody = "<html><head><title>301 Moved Permanently</title></head><body>moved</body></html>\n"

// Serve answers req according to the domain's serving chain.
func Serve(w *worldgen.World, req Request) Response {
	var resp Response
	ServeTo(w, &req, &resp)
	return resp
}

// ServeTo is Serve writing its answer into resp, for callers that keep
// one Response for many requests. It neither retains nor modifies req.
func ServeTo(w *worldgen.World, req *Request, resp *Response) {
	d := req.Domain
	x := exchange{w: w, loc: req.Loc, client: req.ClientIP, class: req.Class, classified: req.Classified, name: req.NameHash}
	if !req.Located {
		x.loc = Locate(w, req.ClientIP)
	}
	if x.name == 0 {
		x.name = stats.Hash(d.Name)
	}
	rng := stats.NewRNG(stats.Mix64(req.SampleSeed) ^ x.name)
	// Both draws come first, whatever is served, so the access-control
	// draws below always see the same stream position.
	x.ray = rng.Uint64()
	x.nonce = uint32(rng.Uint64())
	*resp = Response{Status: 200, Hops: 1, host: req.Host, domain: d, reqHeader: req.Header, ray: x.ray, nonce: x.nonce}

	// Access control runs at first contact, before any redirect: a
	// blocked client never sees the redirect chain.
	if kind := accessControl(&x, req, rng); kind != blockpage.KindNone {
		resp.Status, resp.Page = kind.Status(), kind
		resp.path, resp.client, resp.country = req.Path, req.ClientIP, w.Geo.Name(x.loc.Country)
		_, resp.BodyLen = resp.blockPage(false)
		return
	}

	// Same-site redirect hops: http→https, then apex→www. Each further
	// hop is served here, from the verdicts above: the draws, access
	// control and the page below key on the domain, the client and its
	// location, the clock, the header verdict and the seed, and no
	// same-site hop changes any of those, so a client sending the hops
	// one by one is answered the same at every hop.
	scheme, path := req.Scheme, req.Path
	www := len(req.Host) > 4 && req.Host[:4] == "www."
	for {
		next := redirect(d, scheme, www, path)
		if next.scheme == "" {
			break
		}
		if resp.Hops >= req.MaxHops {
			resp.Status, resp.next, resp.BodyLen = 301, next, len(movedBody)
			return
		}
		resp.Hops++
		scheme, path = next.scheme, next.path
		if next.www {
			www, resp.www = true, true
		}
	}

	// Flaky backends intermittently serve a shared junk page
	// (maintenance interstitial, default vhost page) — 200-status
	// short-page noise for the outlier pipeline.
	if d.JunkRate > 0 && rng.Bool(d.JunkRate) {
		kinds := blockpage.JunkKinds()
		resp.junk, resp.junkKind = true, kinds[x.name%uint64(len(kinds))]
		var b [nonceLen]byte
		resp.BodyLen = blockpage.JunkLen(resp.junkKind, d.Name, string(junkToken(b[:0], x.nonce)))
		return
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
	resp.BodyLen = d.Origin.VariantLength(req.SampleSeed, variant)
	resp.origin, resp.variant, resp.seed = d.Origin, variant, req.SampleSeed
}

// Locate is the edge's GeoIP view of a client at ip: the database's
// location, moved for the sticky fraction of addresses the edge's
// database has wrong.
func Locate(w *worldgen.World, ip geo.IP) geo.Location {
	loc, _ := w.Geo.Locate(ip)
	return Misgeolocate(w, loc, -1, ip)
}

// accessControl walks the serving chain and returns the block page of
// the first layer that refuses the request, KindNone when none does.
func accessControl(x *exchange, req *Request, rng *stats.RNG) blockpage.Kind {
	w, d, loc := x.w, req.Domain, x.loc
	fp := req.Fingerprint
	if fp == Unclassified {
		fp = Classify(req.Header)
	}
	crawler := fp == Crawler

	// Proxy-blacklist blocking fires before anything else: these
	// deployments deny the residential-proxy address lists wholesale,
	// in every country — the blocked-everywhere behaviour that defeats
	// the representative-length heuristic (Table 2) and that the
	// consistency analysis must exclude (§5.2.2).
	if d.BlocksProxies && x.clientClass()&geo.ProxyFlagged != 0 {
		if d.DistilProtected {
			return blockpage.DistilCaptcha
		}
		switch {
		case d.FrontedBy(worldgen.Akamai):
			return blockpage.Akamai
		case d.FrontedBy(worldgen.Incapsula):
			return blockpage.Incapsula
		case d.Hosting() == worldgen.OriginVarnish:
			return blockpage.Varnish
		default:
			return blockpage.Nginx
		}
	}

	for _, p := range d.Providers {
		// Platform-level App Engine block (§4.2.1): Google itself, not
		// the customer, denies sanctioned locations.
		if p == worldgen.AppEngine && d.GAEHosted && worldgen.AppEngineBlocked(loc) {
			return blockpage.AppEngine
		}

		if rule, ok := d.GeoRules[p]; ok && rule.Applies(loc, req.Clock) {
			switch rule.Action {
			case worldgen.ActionBlock:
				if d.Legal451 {
					// RFC 7725: the operator states the legal basis.
					return blockpage.Legal451
				}
				return blockKind(p)
			case worldgen.ActionCaptcha:
				return captchaKind(d, p)
			case worldgen.ActionJS:
				return blockpage.CloudflareJS
			}
		}

		// Bot defense: crawler-like fingerprints are denied with the
		// same page the provider uses for everything else — the §3.1
		// false-positive machine.
		if crawler && d.BotSensitivity > 0 && rng.Bool(d.BotSensitivity) {
			switch p {
			case worldgen.Akamai:
				return blockpage.Akamai
			case worldgen.Incapsula:
				return blockpage.Incapsula
			case worldgen.Cloudflare:
				return blockpage.CloudflareCaptcha
			}
		}

		// Anonymizer challenge: Cloudflare-fronted sites challenge
		// known Tor/VPN exit addresses (the tool-vs-Tor fate sharing of
		// Khattak et al., §8); the verdict is sticky per (domain,
		// address). The challenge page carries a 403, which is why OONI
		// controls made over Tor so often look "blocked" (§7.1).
		if p == worldgen.Cloudflare && x.clientClass()&geo.Anonymizer != 0 {
			draw := float64(stats.Mix64(x.name^uint64(req.ClientIP)^0x7042)>>11) / (1 << 53)
			if draw < 0.80 {
				return blockpage.CloudflareCaptcha
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
			class := x.clientClass()
			risk := countryRiskFactor(w, loc, class&geo.Datacenter != 0)
			if class&geo.Anonymizer != 0 {
				risk = 0.88
			}
			draw := float64(stats.Mix64(x.name^uint64(req.ClientIP)^0x5ca1ab1e)>>11) / (1 << 53)
			if draw < d.ReputationSensitivity*risk {
				if p == worldgen.Akamai {
					return blockpage.Akamai
				}
				return blockpage.Incapsula
			}
		}
	}

	// Airbnb's custom application-level restriction page.
	if d.AirbnbStyle && worldgen.AirbnbBlocked(loc) {
		return blockpage.Airbnb
	}

	// IP-reputation noise: heavily defended sites challenge even
	// browser-like residential clients at a low per-request rate.
	if d.ResidentialChallengeRate > 0 && rng.Bool(d.ResidentialChallengeRate) {
		if d.DistilProtected {
			return blockpage.DistilCaptcha
		}
		if d.FrontedBy(worldgen.Cloudflare) {
			return blockpage.CloudflareCaptcha
		}
		return blockpage.DistilCaptcha
	}

	return blockpage.KindNone
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

// redirect computes the next hop of the domain's same-site redirect
// chain from a hop to scheme://host+path, where www reports whether
// host starts with "www."; its zero value means content should be
// served.
func redirect(d *worldgen.Domain, scheme string, www bool, path string) hop {
	if d.RedirectLoop {
		// Pathological: bounce between two paths forever.
		if path == "/a" {
			return hop{scheme: scheme, path: "/b"}
		}
		return hop{scheme: scheme, path: "/a"}
	}
	switch {
	case d.RedirectHops >= 1 && scheme == "http":
		return hop{scheme: "https", path: path}
	case d.RedirectHops >= 2 && !www:
		return hop{scheme: "https", www: true, path: path}
	}
	return hop{}
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
		h.Set("X-Iinfo", "9-"+vars.Nonce+" 0NNN RT")
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

// Misgeolocate is Locate for a client whose database location, loc,
// the caller already holds: it moves loc to an adjacent country in the
// table for the sticky fraction of addresses the edge's GeoIP database
// has wrong. at is the index of loc's country in the world's country
// table, for a caller that recorded it with loc; -1 has it looked up,
// which only a misplaced address needs.
func Misgeolocate(w *worldgen.World, loc geo.Location, at int, ip geo.IP) geo.Location {
	if loc.Country == "" {
		return loc
	}
	h := stats.Mix64(uint64(ip) ^ 0x6e0c817)
	if h%1000 >= edgeGeoIPErrorPermille {
		return loc
	}
	cs := w.Geo.Countries()
	if at < 0 {
		if at = slices.IndexFunc(cs, func(c geo.Country) bool { return c.Code == loc.Country }); at < 0 {
			return loc
		}
	}
	return geo.Location{Country: cs[(at+1+int(h>>32)%5)%len(cs)].Code}
}
