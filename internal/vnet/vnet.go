// Package vnet is the virtual network layer: it connects a client
// address to the simulated web. Its primary seam is Probe: a GET in
// (scheme, host, path, the deterministic sample seed, a shared
// read-only header set, and how many requests the client will spend on
// the site's same-site redirect chain), and out, written into a Reply
// the caller owns, the last hop's status, advertised body length,
// redirect target and lazily rendered body, and how many requests the
// chain took. The scanner reuses one Reply for every probe of every
// attempt, so the scan path pays for no HTTP plumbing it does not read
// and copies no reply.
//
// What stays fixed across hops is worked out once, by the scope that
// owns it. A Dest resolves a task's destination (site name, domain
// record, name hash, the proxy mesh's transit verdict) and holds the
// error value its failed hops reuse. At locates a client address once
// for every probe its Stack sends, and the header set's bot verdict
// rides in the Probe. A probe with a hop budget (MaxHops) sends a whole
// same-site redirect chain: the stack's checks run once, since no
// same-site hop changes what they key on, and the edge walks the chain
// to the page or to the budget's last request, rendering the last
// hop's Location only when read, so a probe that only reports a length
// allocates nothing.
//
// Program code reaches the simulated web only through Probe: scans and
// one-off fetches through internal/scanner, which bounds each attempt's
// requests as http.Client does, and provider discovery, which reads
// every hop's headers, one hop per probe. A Stack (like a
// proxy.Session) is also an http.RoundTripper, a thin adapter over
// one-hop probes that the benchmark's transport timers and the
// net/http reference tests wrap.
//
// The stack performs DNS resolution against the world, applies national
// censorship in-path (resets, poisoned DNS, injected block pages,
// timeouts), and hands surviving requests to the CDN edge. Timeouts are
// simulated — the errors satisfy net.Error with Timeout() == true but
// return immediately, keeping million-request studies fast.
package vnet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"geoblock/internal/blockpage"
	"geoblock/internal/cdn"
	"geoblock/internal/censor"
	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// OpError is the network-level failure type. It satisfies net.Error.
type OpError struct {
	Op      string // "dial", "dns", "read"
	Host    string
	Msg     string
	timeout bool
}

func (e *OpError) Error() string   { return fmt.Sprintf("%s %s: %s", e.Op, e.Host, e.Msg) }
func (e *OpError) Timeout() bool   { return e.timeout }
func (e *OpError) Temporary() bool { return true }

// Stack is one client's network stack: a source address plus the world
// it is plugged into. It is safe for concurrent use.
type Stack struct {
	World *worldgen.World
	IP    geo.IP

	// The GeoIP answers for IP, which At looks up once for every probe
	// the stack sends; a Stack built without At looks them up per probe.
	// A located stack's IP must not change.
	located bool
	loc     geo.Location // the database's location of IP
	edge    geo.Location // the edge's view of IP (cdn.Locate)
}

// NewStack returns a stack sourcing traffic from ip.
func NewStack(w *worldgen.World, ip geo.IP) *Stack {
	s := At(w, ip)
	return &s
}

// At returns the stack sourcing traffic from ip, located once: the
// GeoIP lookups every probe needs are made here, not per probe.
func At(w *worldgen.World, ip geo.IP) Stack {
	loc, _ := w.Geo.Locate(ip)
	return Stack{World: w, IP: ip, located: true, loc: loc, edge: cdn.Locate(w, ip)}
}

// Probe is one GET, with the same-site redirects it may follow. It is
// passed by value; the answer comes back in a Reply the caller owns.
type Probe struct {
	Scheme string // "http" or "https"
	Host   string
	Path   string
	// Seed is the deterministic per-sample seed: a (domain, vantage,
	// sample) triple always reproduces the identical response, which is
	// what lets the pipeline re-fetch a sample's body instead of
	// storing terabytes.
	Seed uint64
	// Header is the request header set. It is shared across hops and
	// samples and must not be modified.
	Header http.Header
	// Fingerprint is the edge's bot verdict on Header (cdn.Classify),
	// for callers that send one header set many times; the zero value
	// leaves it to the edge.
	Fingerprint cdn.Fingerprint
	// Dest is Host resolved against the world, for callers that send
	// many probes to one site. Nil resolves Host on each probe.
	Dest *Dest
	// MaxHops is how many requests the probe may send along the site's
	// same-site redirect chain, each one a hop a client following the
	// redirects would send. Zero, like one, sends one hop.
	MaxHops int
}

// Dest is a destination resolved once for every hop and attempt of a
// task: the site every layer keys on and what it resolves to. The
// scanner owns one per task and points each probe's Dest at it; a
// same-site redirect keeps it, and a redirect that leaves the site
// needs another.
type Dest struct {
	// Name is the host as every layer keys on it (SiteName).
	Name string
	// Domain is the site Name resolves to, nil when it resolves to none.
	Domain *worldgen.Domain
	// Hash is stats.Hash(Name).
	Hash uint64
	// PathDown is the proxy mesh's stable transit verdict for the
	// resolving session's country and Name (proxy.Session.Resolve sets
	// it). A Stack resolves no transit verdict.
	PathDown bool

	err OpError // the failure of the last failed hop, reused by the next
}

// SiteName is host as every layer keys on it: lower-cased, without a
// www. prefix.
func SiteName(host string) string {
	return strings.TrimPrefix(strings.ToLower(host), "www.")
}

// Resolve resolves host against the stack's world into d.
func (s *Stack) Resolve(host string, d *Dest) {
	name := SiteName(host)
	dom, _ := s.World.Lookup(name)
	*d = Dest{Name: name, Domain: dom, Hash: stats.Hash(name)}
}

// Fail returns the failure of a hop to host. The error is d's own and
// stays valid until the next hop through d fails, so a failed hop
// allocates nothing.
func (d *Dest) Fail(op, host, msg string, timeout bool) error {
	d.err = OpError{Op: op, Host: host, Msg: msg, timeout: timeout}
	return &d.err
}

// Reply is the answer to a probe: what its last hop was answered, and
// how many hops it took. The caller owns it: Probe writes into a Reply
// the caller passes, so one Reply can serve every probe of an attempt
// and every attempt after it. Rendering is lazy: Body builds the page
// and Header the response headers only when called.
type Reply struct {
	Status int
	// BodyLen is the advertised Content-Length, -1 when the response
	// carries none (a truncated transfer).
	BodyLen int
	// Hops is how many requests the probe took: one, plus each
	// same-site redirect followed within Probe.MaxHops.
	Hops int
	// Redirect marks a redirect response, whose target Location
	// renders: the chain outran the probe's hop budget, or the redirect
	// was read back from an HTTP response.
	Redirect bool
	// Refused marks the proxy platform's refusal to fetch the
	// destination (an X-Luminati-Error response).
	Refused bool
	// Truncated marks a transfer that dies mid-body: Body returns the
	// bytes that arrived and a read error.
	Truncated bool

	keep     int            // bytes a truncated transfer delivers
	edge     cdn.Response   // the edge's answer
	censored string         // the national filter's block page, when it answered
	resp     *http.Response // the response a wrapped transport returned
}

// refusal is the proxy platform's X-Luminati-Error message.
const refusal = "403 Forbidden: target site requests to not be crawled"

// errMidTransfer is the read error of a truncated transfer.
var errMidTransfer = &OpError{Op: "read", Msg: "connection reset mid-transfer"}

// Refuse makes r the proxy platform's answer for a destination it will
// not fetch.
func (r *Reply) Refuse() { *r = Reply{Status: http.StatusBadGateway, Hops: 1, Refused: true} }

// Truncate cuts the transfer after keep bytes of body: the advertised
// length disappears and reading the body fails.
func (r *Reply) Truncate(keep int) {
	r.Truncated = true
	r.BodyLen = -1
	r.keep = keep
}

// Body renders the reply's body. A truncated transfer returns the bytes
// that arrived before it died and a read error.
func (r *Reply) Body() (string, error) {
	var body string
	switch {
	case r.resp != nil:
		b, err := io.ReadAll(r.resp.Body)
		r.resp.Body.Close()
		return string(b), err
	case r.censored != "":
		body = r.censored
	case !r.Refused:
		body = r.edge.Body()
	}
	if !r.Truncated {
		return body, nil
	}
	if len(body) > r.keep {
		body = body[:r.keep]
	}
	return body, errMidTransfer
}

// Header builds the reply's response headers.
func (r *Reply) Header() http.Header {
	var h http.Header
	switch {
	case r.resp != nil:
		return r.resp.Header
	case r.Refused:
		h = make(http.Header)
		h.Set("X-Luminati-Error", refusal)
	case r.censored != "":
		h = make(http.Header)
		h.Set("Content-Type", "text/html; charset=windows-1256")
		h.Set("Content-Length", strconv.Itoa(len(r.censored)))
	default:
		h = r.edge.Header()
	}
	if r.Truncated {
		h.Del("Content-Length")
	}
	return h
}

// Location is a redirect's Location value, rendered on each call.
func (r *Reply) Location() string {
	if r.resp != nil {
		return r.resp.Header.Get("Location")
	}
	return r.edge.Location()
}

// Close releases the body of a reply read back from an HTTP response.
// Other replies hold nothing to release.
func (r *Reply) Close() {
	if r.resp != nil {
		r.resp.Body.Close()
	}
}

// SetResponse reads resp back into r, for callers that send a hop
// through an http.RoundTripper. Body reads resp.Body, and Close closes
// it.
func (r *Reply) SetResponse(resp *http.Response) {
	*r = Reply{Status: resp.StatusCode, BodyLen: int(resp.ContentLength), Hops: 1, resp: resp}
	switch resp.StatusCode {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		r.Redirect = resp.Header.Get("Location") != ""
	}
	r.Refused = resp.Header.Get("X-Luminati-Error") != ""
}

// Response renders r as the *http.Response a RoundTripper returns for
// req. The body is rendered on its first read, and a HEAD response
// carries none.
func (r *Reply) Response(req *http.Request) *http.Response {
	resp := &http.Response{
		Status:        strconv.Itoa(r.Status) + " " + http.StatusText(r.Status),
		StatusCode:    r.Status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        r.Header(),
		ContentLength: int64(r.BodyLen),
		Body:          http.NoBody,
		Request:       req,
	}
	switch {
	case req.Method == http.MethodHead:
		if r.Truncated {
			body := &lazyBody{reply: *r}
			body.reply.keep = 0 // no body, but reading it still fails
			resp.Body = body
		}
	case !r.Refused:
		resp.Body = &lazyBody{reply: *r}
	}
	return resp
}

// ProbeOf translates an HTTP request into a one-hop probe. The seed comes
// from the request context (WithSampleSeed); requests without one
// derive it from the host and the source address, deterministic per
// URL and client but shared across repeats.
func ProbeOf(req *http.Request, src geo.IP) Probe {
	host := req.URL.Hostname()
	seed, ok := SampleSeed(req.Context())
	if !ok {
		seed = stats.Mix64(stats.Hash(strings.ToLower(host)) ^ uint64(src))
	}
	return Probe{Scheme: req.URL.Scheme, Host: host, Path: req.URL.Path, Seed: seed, Header: req.Header}
}

type seedKey struct{}

// WithSampleSeed attaches the deterministic per-sample seed to ctx, for
// requests sent through the RoundTrip adapters.
func WithSampleSeed(ctx context.Context, seed uint64) context.Context {
	return context.WithValue(ctx, seedKey{}, seed)
}

// SampleSeed extracts the seed WithSampleSeed attached.
func SampleSeed(ctx context.Context) (uint64, bool) {
	v, ok := ctx.Value(seedKey{}).(uint64)
	return v, ok
}

// RoundTrip implements http.RoundTripper as an adapter over Probe.
func (s *Stack) RoundTrip(req *http.Request) (*http.Response, error) {
	var r Reply
	if err := s.Probe(ProbeOf(req, s.IP), &r); err != nil {
		return nil, err
	}
	return r.Response(req), nil
}

// Probe sends p from the stack's address, following the site's
// same-site redirects within p.MaxHops, and writes the last hop's
// answer into r. The checks in front of the edge run once: they key on
// the destination's name, the client's location and the clock, which
// no same-site hop changes. After an error r holds nothing the caller
// may read.
func (s *Stack) Probe(p Probe, r *Reply) error {
	if !s.located {
		st := At(s.World, s.IP)
		return st.Probe(p, r)
	}
	d := p.Dest
	if d == nil {
		d = new(Dest)
		s.Resolve(p.Host, d)
	}
	host := strings.ToLower(p.Host)

	// National censorship sits between the client and everything else;
	// DNS poisoning fires even for domains that would not resolve.
	dom := d.Domain
	if dom != nil {
		switch censor.Check(dom, s.loc) {
		case censor.RST:
			return d.Fail("read", host, "connection reset by peer", false)
		case censor.DNSPoison:
			return d.Fail("dns", host, "poisoned answer: connection refused", false)
		case censor.Timeout:
			return d.Fail("dial", host, "i/o timeout", true)
		case censor.BlockPage:
			s.censorPage(dom, p.Seed, r)
			return nil
		}
	}

	if dom == nil {
		return d.Fail("dns", host, "no such host", false)
	}
	if dom.Unreachable {
		return d.Fail("dial", host, "i/o timeout", true)
	}

	// Timeout geoblocking (§7.3): the origin silently drops connections
	// from blocked countries — indistinguishable on the wire from an
	// outage or censorship, which is exactly what makes it hard to
	// attribute.
	if dom.TimeoutBlockedIn(s.loc) {
		return d.Fail("dial", host, "i/o timeout", true)
	}

	*r = Reply{}
	cdn.ServeTo(s.World, &cdn.Request{
		Domain:      dom,
		Host:        host,
		Path:        p.Path,
		Method:      http.MethodGet,
		Scheme:      p.Scheme,
		ClientIP:    s.IP,
		Header:      p.Header,
		Clock:       s.World.Clock(),
		SampleSeed:  p.Seed,
		Loc:         s.edge,
		Located:     true,
		Fingerprint: p.Fingerprint,
		NameHash:    d.Hash,
		MaxHops:     p.MaxHops,
	}, &r.edge)
	r.Status, r.BodyLen, r.Hops, r.Redirect = r.edge.Status, r.edge.BodyLen, r.edge.Hops, r.edge.Redirect()
	return nil
}

// censorPage injects the national filter's block page into r.
func (s *Stack) censorPage(d *worldgen.Domain, seed uint64, r *Reply) {
	rng := stats.NewRNG(seed)
	body := blockpage.Render(blockpage.Censorship, blockpage.Vars{
		Domain:   d.Name,
		ClientIP: s.IP.String(),
		Nonce:    fmt.Sprintf("%06x", uint32(rng.Uint64())),
	})
	*r = Reply{Status: http.StatusForbidden, BodyLen: len(body), Hops: 1, censored: body}
}

// lazyBody renders the page on first Read; responses whose bodies are
// never read (length-only consumers) cost nothing. A truncated
// transfer yields its prefix, then the read error.
type lazyBody struct {
	reply Reply
	r     *strings.Reader
	err   error
}

func (b *lazyBody) Read(p []byte) (int, error) {
	if b.r == nil {
		body, err := b.reply.Body()
		b.r, b.err = strings.NewReader(body), err
	}
	n, err := b.r.Read(p)
	if err == io.EOF && b.err != nil {
		err = b.err
	}
	return n, err
}

func (b *lazyBody) Close() error { return nil }
