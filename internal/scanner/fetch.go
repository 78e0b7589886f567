// The fetcher layer: one attempt, its redirect chain, and its error
// classification. An attempt is a direct probe (vnet.Probe) of the
// shard's session or stack: no *http.Request, no header copies, no
// body rendered unless the sample keeps it, and one vnet.Reply, owned
// by the fetcher, that every probe and attempt writes into. What stays
// fixed for a domain is resolved once per plan, into a target: the
// first probe's host and path, the site name, its domain record and
// hash, and the domain's share of its sample seeds. The fetcher copies
// a task's destination into a vnet.Dest of its own, which every probe
// of the task carries. Redirects are bounded here as
// http.Client bounds them: an attempt sends at most MaxRedirects
// requests, each spending a unit of the exit's budget. A probe carries
// what is left of that bound and walks the site's same-site redirects
// within it; a Location it did not walk (one read back through a
// wrapped transport, whose probes are one hop each) is parsed and sent
// as the next probe.
package scanner

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"geoblock/internal/cdn"
	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

var errRedirectLimit = errors.New("scanner: redirect limit reached")

// Prober is what a fetcher sends hops through: *proxy.Session and
// *vnet.Stack. Probe is the direct path, and the RoundTrip adapter is
// what Config.WrapTransport wraps.
type Prober interface {
	Probe(vnet.Probe, *vnet.Reply) error
	http.RoundTripper
}

// headerSet is a scan's request headers, canonicalized once per plan
// and shared read-only by every hop, with the edge's bot verdict on
// them.
type headerSet struct {
	header      http.Header
	fingerprint cdn.Fingerprint
}

func newHeaderSet(m map[string]string) headerSet {
	h := make(http.Header, len(m))
	for k, v := range m {
		h.Set(k, v)
	}
	return headerSet{header: h, fingerprint: cdn.Classify(h)}
}

// fetcher performs single attempts through one prober. It carries the
// shard's context so wrapped transports see a cancellable request.
// A pool worker keeps one and resets it for each unit.
type fetcher struct {
	ctx     context.Context
	probe   Prober
	rt      http.RoundTripper // Config.WrapTransport around probe; nil sends hops direct
	headers headerSet
	maxHops int
	bodies  BodyPolicy
	reply   vnet.Reply   // every hop's answer, reused from hop to hop
	metrics *UnitMetrics // nil when nothing counts the attempts

	target *target   // the current task's domain
	dest   vnet.Dest // target's destination, the fetcher's own copy
}

// reset makes f a fetcher over p with the plan's header set and the
// config's redirect bound and body-retention policy, keeping nothing
// of what it fetched before: no reply, no task. It counts its attempts
// into m, when m is not nil.
func (f *fetcher) reset(ctx context.Context, p Prober, cfg Config, hs headerSet, m *UnitMetrics) {
	*f = fetcher{
		ctx:     ctx,
		probe:   p,
		headers: hs,
		maxHops: MaxRedirects,
		bodies:  cfg.Bodies,
	}
	if m != nil {
		f.metrics, m.Fetcher = m, true
	}
	if cfg.WrapTransport != nil {
		f.rt = cfg.WrapTransport(p)
	}
}

// target is one of a plan's domains resolved against the world that
// executes the plan, once for every task and attempt that names it.
type target struct {
	// host and path are the first probe's: the domain and "/" for a
	// plain name, otherwise what net/url makes of http://domain/.
	host, path string
	// err is why the name is no URL, failing every attempt at it; nil
	// when it parses.
	err  error
	dest vnet.Dest // host resolved against the world
	// seed is stats.Hash of the domain name, its share of every sample
	// seed (saltedSeed).
	seed uint64
}

// newTarget resolves domain against w.
func newTarget(w *worldgen.World, domain string) target {
	t := target{host: domain, path: "/", seed: stats.Hash(domain)}
	if !plain(domain, false) {
		p, err := resolve(vnet.Probe{Scheme: "http", Host: domain, Path: "/"}, "http://"+domain+"/")
		if err != nil {
			t.err = &vnet.OpError{Op: "dns", Host: domain, Msg: err.Error()}
			return t
		}
		t.host, t.path = p.Host, p.Path
	}
	t.dest = vnet.Resolve(w, t.host)
	return t
}

// aim points f at t, the domain of the task whose attempts follow,
// copying its destination into f's own, whose failure value the
// task's failed hops reuse.
func (f *fetcher) aim(t *target) {
	f.target, f.dest = t, t.dest
}

// fetch performs one attempt at the task f is aimed at and classifies
// the outcome. exit is the address serving the attempt (recorded even
// on failure, for the load accounting and for replay). The return
// value is named so the metrics' defer counts the final sample
// whichever path produced it.
func (f *fetcher) fetch(seed uint64, t Task, attempt uint8, exit geo.IP) (s Sample) {
	if m := f.metrics; m != nil {
		defer m.fetched(&s)
	}
	s = Sample{Domain: t.Domain, Country: t.Country, Attempt: attempt, Seed: seed, ExitIP: exit}

	r := &f.reply
	err := f.follow(seed)
	if err != nil {
		s.Err = classifyError(err)
		return s
	}
	defer r.Close()
	if r.Refused {
		s.Err = ErrLuminati
		return s
	}
	s.Status = int16(r.Status)

	// A truncated transfer advertises no length; storing -1 would
	// poison the §4.1.2 page-length outlier math, so such bodies are
	// read and counted instead.
	var body string
	read := false
	bodyLen := r.BodyLen
	if bodyLen < 0 {
		if body, err = r.Body(); err != nil {
			s.Err = ErrReset
			return s
		}
		bodyLen, read = len(body), true
	}
	s.BodyLen = int32(bodyLen)
	if f.bodies.keeps(r.Status) {
		if !read {
			if body, err = r.Body(); err != nil {
				s.Err = ErrReset
				return s
			}
		}
		s.Body = body
		s.BodyLen = int32(len(body))
	}
	return s
}

// hop sends p into r: straight to the prober, or, when the config
// wraps the transport, as a one-hop HTTP request through the wrapped
// RoundTrip adapter, whose bodies stay unrendered until read.
func (f *fetcher) hop(p vnet.Probe, r *vnet.Reply) error {
	if f.rt == nil {
		return f.probe.Probe(p, r)
	}
	u := url.URL{Scheme: p.Scheme, Host: p.Host, Path: p.Path}
	req, err := http.NewRequestWithContext(vnet.WithSampleSeed(f.ctx, p.Seed), http.MethodGet, u.String(), nil)
	if err != nil {
		return err
	}
	req.Header = p.Header
	resp, err := f.rt.RoundTrip(req)
	if err != nil {
		return err
	}
	r.SetResponse(resp)
	return nil
}

// follow fetches http://domain/ of the task f is aimed at into f.reply
// and follows its redirect chain the way http.Client does: every hop
// carries the same headers and seed, and the attempt fails with
// errRedirectLimit when the maxHops-th request still answers with a
// redirect. Each probe may spend what is left of maxHops, and the
// requests it took count against it. A same-site Location keeps the
// task's destination; one that leaves the site is resolved again by
// whatever probes it.
func (f *fetcher) follow(seed uint64) error {
	t := f.target
	if t.err != nil {
		return t.err
	}
	p := vnet.Probe{Scheme: "http", Host: t.host, Path: t.path, Seed: seed,
		Header: f.headers.header, Fingerprint: f.headers.fingerprint, Dest: &f.dest}
	r := &f.reply
	for sent := 0; ; {
		p.MaxHops = f.maxHops - sent
		if err := f.hop(p, r); err != nil || !r.Redirect {
			return err
		}
		r.Close()
		if sent += r.Hops; sent >= f.maxHops {
			return errRedirectLimit
		}
		var err error
		if p, err = nextHop(p, r.Location()); err != nil {
			return err
		}
		if p.Dest != nil && vnet.SiteName(p.Host) != p.Dest.Name {
			p.Dest = nil
		}
	}
}

// nextHop points p at a redirect's Location. Every Location the simulated
// edges emit is a plain absolute URL (an http or https scheme, then a
// host and path of letters, digits, '.', '-', '_' and '/'), which is
// split as is; anything else (ports, escapes, queries, relative
// references) is resolved by net/url, as http.Client resolves it.
func nextHop(p vnet.Probe, loc string) (vnet.Probe, error) {
	if scheme, rest, ok := strings.Cut(loc, "://"); ok && (scheme == "http" || scheme == "https") {
		host, path := rest, ""
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			host, path = rest[:i], rest[i:]
		}
		if host != "" && plain(host, false) && plain(path, true) {
			p.Scheme, p.Host, p.Path = scheme, host, path
			return p, nil
		}
	}
	return resolve(p, loc)
}

// resolve points p at raw, resolved against p's own URL.
func resolve(p vnet.Probe, raw string) (vnet.Probe, error) {
	base := url.URL{Scheme: p.Scheme, Host: p.Host, Path: p.Path}
	u, err := base.Parse(raw)
	if err != nil {
		return p, err
	}
	p.Scheme, p.Host, p.Path = u.Scheme, u.Hostname(), u.Path
	return p, nil
}

// plain reports whether s holds only letters, digits, '.', '-', '_'
// and, when slash is set, '/': a host or path net/url would take as is.
func plain(s string, slash bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '-', c == '_', slash && c == '/':
		default:
			return false
		}
	}
	return true
}

// Fetch sends one attempt at http://domain/ through p, a prober into
// w, as a scan's fetcher sends it: the headers and seed ride on every
// hop, and the redirect chain is followed to at most MaxRedirects
// requests. domain is resolved against w once for the call. The last
// hop's answer is left in r, its body unrendered until read. The
// result classifies a failed attempt as a sample's would be; it is
// ErrNone when r holds an answer, a proxy's refusal (r.Refused)
// included.
func Fetch(w *worldgen.World, p Prober, domain string, seed uint64, headers map[string]string, r *vnet.Reply) ErrCode {
	t := newTarget(w, domain)
	f := fetcher{probe: p, headers: newHeaderSet(headers), maxHops: MaxRedirects}
	f.aim(&t)
	if err := f.follow(seed); err != nil {
		return classifyError(err)
	}
	*r = f.reply
	return ErrNone
}

// Replay re-fetches the exact body of a previously collected sample:
// the response is a pure function of (domain, exit address, seed), so
// the pipeline can cluster outlier bodies without having stored them.
// It follows the redirect chain on a fetcher straight from the exit's
// address, and returns the final body and status.
func Replay(w *worldgen.World, domain string, exit geo.IP, seed uint64, headers map[string]string, maxRedirects int) (string, int, error) {
	st := vnet.At(w, exit)
	t := newTarget(w, domain)
	f := fetcher{probe: &st, headers: newHeaderSet(headers), maxHops: maxRedirects}
	f.aim(&t)
	if err := f.follow(seed); err != nil {
		return "", 0, fmt.Errorf("scanner: replay %s: %w", domain, err)
	}
	body, err := f.reply.Body()
	if err != nil {
		return "", 0, err
	}
	return body, f.reply.Status, nil
}

// classifyError maps transport errors onto the sample taxonomy. The
// probe path returns a bare *vnet.OpError or errRedirectLimit, which
// the comparisons take without the allocation errors.As costs.
func classifyError(err error) ErrCode {
	if err == errRedirectLimit {
		return ErrRedirects
	}
	op, ok := err.(*vnet.OpError)
	if !ok {
		var wrapped *vnet.OpError
		if errors.As(err, &wrapped) {
			op, ok = wrapped, true
		}
	}
	if ok {
		switch {
		case op.Timeout():
			return ErrTimeout
		case op.Op == "dns":
			return ErrDNS
		case op.Op == "proxy":
			return ErrProxy
		default:
			return ErrReset
		}
	}
	if errors.Is(err, errRedirectLimit) {
		return ErrRedirects
	}
	return ErrProxy
}
