// Package vnet is the virtual network layer: it connects a client
// address to the simulated web. Its primary seam is Probe: one GET hop
// in (scheme, host, path, the deterministic sample seed, and a shared
// read-only header set), and out, written into a Reply the caller owns,
// the status, advertised body length, redirect target, and a lazily
// rendered body. The scanner follows redirect chains over that seam
// itself, reusing one Reply for every hop of every attempt, so the scan
// path pays for no HTTP plumbing it does not read and copies no reply.
//
// A Stack is also an http.RoundTripper, a thin adapter over Probe, for
// the tooling that wants real HTTP semantics (provider discovery, the
// OONI comparison, the pipeline's extension studies): an ordinary
// *http.Client on top gets redirect handling, header canonicalization
// and net.Error semantics.
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

// TimeoutError builds an OpError that reports Timeout() == true — for
// layers outside this package that simulate dropped connections.
func TimeoutError(op, host string) *OpError {
	return &OpError{Op: op, Host: host, Msg: "i/o timeout", timeout: true}
}

func (e *OpError) Error() string   { return fmt.Sprintf("%s %s: %s", e.Op, e.Host, e.Msg) }
func (e *OpError) Timeout() bool   { return e.timeout }
func (e *OpError) Temporary() bool { return true }

// Stack is one client's network stack: a source address plus the world
// it is plugged into. It is safe for concurrent use.
type Stack struct {
	World *worldgen.World
	IP    geo.IP
}

// NewStack returns a stack sourcing traffic from ip.
func NewStack(w *worldgen.World, ip geo.IP) *Stack {
	return &Stack{World: w, IP: ip}
}

// Client returns an *http.Client that routes through the stack,
// following up to maxRedirects redirects (the paper's tooling used 10).
func (s *Stack) Client(maxRedirects int) *http.Client {
	return &http.Client{
		Transport: s,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			if len(via) >= maxRedirects {
				return fmt.Errorf("stopped after %d redirects", maxRedirects)
			}
			return nil
		},
	}
}

// Probe is one GET hop. It is passed by value; the answer comes back
// in a Reply the caller owns.
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
}

// Reply is the answer to one probe hop. The caller owns it: Probe
// writes into a Reply the caller passes, so one Reply can serve every
// hop of a redirect chain and every attempt after it. Rendering is
// lazy: Body builds the page and Header the response headers only when
// called.
type Reply struct {
	Status int
	// BodyLen is the advertised Content-Length, -1 when the response
	// carries none (a truncated transfer).
	BodyLen int
	// Redirect is the Location of a redirect response.
	Redirect string
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
func (r *Reply) Refuse() { *r = Reply{Status: http.StatusBadGateway, Refused: true} }

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
	*r = Reply{Status: resp.StatusCode, BodyLen: int(resp.ContentLength), resp: resp}
	switch resp.StatusCode {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		r.Redirect = resp.Header.Get("Location")
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

// ProbeOf translates an HTTP request into a probe hop. The seed comes
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

// Probe sends one GET hop from the stack's address and writes the
// answer into r. After an error r holds nothing the caller may read.
func (s *Stack) Probe(p Probe, r *Reply) error {
	host := strings.ToLower(p.Host)
	lookupHost := strings.TrimPrefix(host, "www.")

	loc, _ := s.World.Geo.Locate(s.IP)

	d, found := s.World.Lookup(lookupHost)

	// National censorship sits between the client and everything else;
	// DNS poisoning fires even for domains that would not resolve.
	if found {
		switch censor.Check(d, loc) {
		case censor.RST:
			return &OpError{Op: "read", Host: host, Msg: "connection reset by peer"}
		case censor.DNSPoison:
			return &OpError{Op: "dns", Host: host, Msg: "poisoned answer: connection refused"}
		case censor.Timeout:
			return &OpError{Op: "dial", Host: host, Msg: "i/o timeout", timeout: true}
		case censor.BlockPage:
			s.censorPage(d, p.Seed, r)
			return nil
		}
	}

	if !found {
		return &OpError{Op: "dns", Host: host, Msg: "no such host"}
	}
	if d.Unreachable {
		return &OpError{Op: "dial", Host: host, Msg: "i/o timeout", timeout: true}
	}

	// Timeout geoblocking (§7.3): the origin silently drops connections
	// from blocked countries — indistinguishable on the wire from an
	// outage or censorship, which is exactly what makes it hard to
	// attribute.
	if d.TimeoutBlockedIn(loc) {
		return &OpError{Op: "dial", Host: host, Msg: "i/o timeout", timeout: true}
	}

	*r = Reply{edge: cdn.Serve(s.World, cdn.Request{
		Domain:     d,
		Host:       host,
		Path:       p.Path,
		Method:     http.MethodGet,
		Scheme:     p.Scheme,
		ClientIP:   s.IP,
		Header:     p.Header,
		Clock:      s.World.Clock(),
		SampleSeed: p.Seed,
	})}
	r.Status, r.BodyLen, r.Redirect = r.edge.Status, r.edge.BodyLen, r.edge.Redirect
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
	*r = Reply{Status: http.StatusForbidden, BodyLen: len(body), censored: body}
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
