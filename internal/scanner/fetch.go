// The fetcher layer: one attempt, its redirect chain, and its error
// classification. Each hop is a direct probe (vnet.Probe) of the
// shard's session or stack: no *http.Request, no header copies, and no
// body rendered unless the sample keeps it. Redirects are followed here
// with http.Client's bound, so an attempt sends at most MaxRedirects
// requests and each one spends a unit of the exit's budget.
package scanner

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"geoblock/internal/geo"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

var errRedirectLimit = errors.New("scanner: redirect limit reached")

// prober is what a fetcher sends hops through: *proxy.Session and
// *vnet.Stack. Probe is the direct path; the RoundTrip adapter is what
// Config.WrapTransport wraps.
type prober interface {
	Probe(vnet.Probe) (vnet.Reply, error)
	http.RoundTripper
}

// fetcher performs single attempts through one prober. It carries the
// shard's context so wrapped transports see a cancellable request.
type fetcher struct {
	ctx      context.Context
	probe    prober
	rt       http.RoundTripper // Config.WrapTransport around probe; nil sends hops direct
	header   http.Header       // built once per shard, shared read-only by every hop
	maxHops  int
	keepBody func(status, bodyLen int) bool
	met      *fetchMetrics
}

// newFetcher builds a fetcher over p with the config's header set,
// redirect bound, and body-retention policy.
func newFetcher(ctx context.Context, p prober, cfg Config) *fetcher {
	f := &fetcher{
		ctx:      ctx,
		probe:    p,
		header:   headerSet(cfg.Headers),
		maxHops:  cfg.MaxRedirects,
		keepBody: cfg.KeepBody,
		met:      newFetchMetrics(cfg.Metrics),
	}
	if cfg.WrapTransport != nil {
		f.rt = cfg.WrapTransport(p)
	}
	return f
}

// headerSet canonicalizes a header map into the read-only set every hop
// shares.
func headerSet(m map[string]string) http.Header {
	h := make(http.Header, len(m))
	for k, v := range m {
		h.Set(k, v)
	}
	return h
}

// fetch performs one attempt and classifies the outcome. exit is the
// address serving the attempt (recorded even on failure, for the load
// accounting and for replay). The return value is named so the metrics
// defer observes the final sample whichever path produced it.
func (f *fetcher) fetch(domain string, seed uint64, t Task, attempt uint8, exit geo.IP) (s Sample) {
	if f.met != nil {
		start := f.met.reg.Now()
		defer func() { f.met.observe(&s, f.met.reg.Now().Sub(start)) }()
	}
	s = Sample{Domain: t.Domain, Country: t.Country, Attempt: attempt, Seed: seed, ExitIP: exit}

	r, err := follow(f.hop, f.header, domain, seed, f.maxHops)
	defer r.Close()
	if err != nil {
		s.Err = classifyError(err)
		return s
	}
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
	if f.keepBody(r.Status, bodyLen) {
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

// hop sends one hop: straight to the prober, or, when the config wraps
// the transport, as an HTTP request through the wrapped RoundTrip
// adapter, whose bodies stay unrendered until read.
func (f *fetcher) hop(p vnet.Probe) (vnet.Reply, error) {
	if f.rt == nil {
		return f.probe.Probe(p)
	}
	u := url.URL{Scheme: p.Scheme, Host: p.Host, Path: p.Path}
	req, err := http.NewRequestWithContext(vnet.WithSampleSeed(f.ctx, p.Seed), http.MethodGet, u.String(), nil)
	if err != nil {
		return vnet.Reply{}, err
	}
	req.Header = p.Header
	resp, err := f.rt.RoundTrip(req)
	if err != nil {
		return vnet.Reply{}, err
	}
	return vnet.ReplyOf(resp), nil
}

// follow fetches http://domain/ and follows its redirect chain the way
// http.Client does: every hop carries the same headers and seed, and
// the attempt fails with errRedirectLimit when the maxHops-th request
// still answers with a redirect. It returns the final hop's reply.
func follow(hop func(vnet.Probe) (vnet.Reply, error), header http.Header, domain string, seed uint64, maxHops int) (vnet.Reply, error) {
	p := vnet.Probe{Scheme: "http", Host: domain, Path: "/", Seed: seed, Header: header}
	if !plain(domain, false) {
		var err error
		if p, err = resolve(p, "http://"+domain+"/"); err != nil {
			return vnet.Reply{}, &vnet.OpError{Op: "dns", Host: domain, Msg: err.Error()}
		}
	}
	for sent := 1; ; sent++ {
		r, err := hop(p)
		if err != nil || r.Redirect == "" {
			return r, err
		}
		r.Close()
		if sent >= maxHops {
			return vnet.Reply{}, errRedirectLimit
		}
		if p, err = nextHop(p, r.Redirect); err != nil {
			return vnet.Reply{}, err
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

// Replay re-fetches the exact body of a previously collected sample:
// the response is a pure function of (domain, exit address, seed), so
// the pipeline can cluster outlier bodies without having stored them.
// It follows the redirect chain on the fetcher's loop, straight from
// the exit's address, and returns the final body and status.
func Replay(w *worldgen.World, domain string, exit geo.IP, seed uint64, headers map[string]string, maxRedirects int) (string, int, error) {
	st := vnet.Stack{World: w, IP: exit}
	r, err := follow(st.Probe, headerSet(headers), domain, seed, maxRedirects)
	if err != nil {
		return "", 0, fmt.Errorf("scanner: replay %s: %w", domain, err)
	}
	body, err := r.Body()
	if err != nil {
		return "", 0, err
	}
	return body, r.Status, nil
}

// classifyError maps transport errors onto the sample taxonomy.
func classifyError(err error) ErrCode {
	var op *vnet.OpError
	if errors.As(err, &op) {
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
