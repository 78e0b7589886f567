// Package proxy models the measurement platform's vantage points: a
// Luminati-style residential proxy mesh (superproxies fronting end-user
// exit machines in each country) and the fleet of datacenter VPSes used
// for validation (§2.2).
//
// The mesh reproduces the error structure that motivated the paper's
// Lumscan tool: unreliable residential exits, local filtering by
// corporate firewalls, occasionally mislocated machines, domains the
// proxy operator refuses to fetch (X-Luminati-Error), and countries
// with no exits at all (North Korea). All stochastic behaviour is
// deterministic per (exit, domain, sample) so studies replay exactly.
package proxy

import (
	"fmt"
	"net/http"

	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

// Exit is one residential proxy machine.
type Exit struct {
	// IP is the address the exit's traffic sources from.
	IP geo.IP
	// Claimed is the country the proxy platform advertises for the
	// exit. For mislocated exits the IP geolocates elsewhere.
	Claimed geo.CountryCode
	// Reliability is the per-request success probability.
	Reliability float64
	// CorporateFirewall marks exits behind local filtering that blocks
	// a slice of domains regardless of geography (§4.2).
	CorporateFirewall bool
	// Mislocated marks exits whose true location differs from Claimed.
	Mislocated bool
	// InCrimea marks Ukrainian exits inside the Crimea region.
	InCrimea bool
}

// FaultVerdict is a fault hook's decision for one request through an
// exit.
type FaultVerdict uint8

const (
	// FaultNone: the request proceeds normally.
	FaultNone FaultVerdict = iota
	// FaultExitDown: the exit connection fails at the superproxy.
	FaultExitDown
	// FaultStall: the connection stalls until the client times out
	// (slowloris-shaped failure).
	FaultStall
	// FaultTruncate: the response body is cut mid-transfer.
	FaultTruncate
	// FaultReset: the connection is reset before any response.
	FaultReset
)

// FaultHook is the mesh's fault-injection seam (internal/faults holds
// the standard implementation). Every method MUST be a pure function of
// its arguments plus the hook's own seed — never of call order, shared
// mutable state, or wall time — or scan output stops being reproducible
// across Concurrency values. Hooks are called concurrently.
type FaultHook interface {
	// Brownout reports whether the superproxy refuses to open a session
	// for cc at slot on the given (0-based) open attempt. Transient
	// brownouts clear after a profile-determined number of attempts.
	Brownout(cc geo.CountryCode, slot uint64, attempt int) bool
	// ExitDark reports whether exit is dark for the whole run: it fails
	// the connectivity pre-check and every request.
	ExitDark(cc geo.CountryCode, exit geo.IP) bool
	// Churned reports whether exit has died mid-session after serving
	// `served` requests on the current sticky stretch.
	Churned(cc geo.CountryCode, exit geo.IP, served int) bool
	// Request draws the per-request fault verdict. seed is the
	// deterministic per-sample seed.
	Request(cc geo.CountryCode, exit geo.IP, host string, seed uint64) FaultVerdict
}

// Network is the proxy mesh.
type Network struct {
	World  *worldgen.World
	exits  map[geo.CountryCode][]*Exit
	faults FaultHook
}

// SetFaults installs (or, with nil, removes) the fault-injection hook.
// Install before opening sessions; the hook is shared by every session
// the network hands out.
func (n *Network) SetFaults(h FaultHook) { n.faults = h }

// maxExitsPerCountry caps the materialized inventory; rotation cycles
// within it.
const maxExitsPerCountry = 240

// NewNetwork builds the mesh from the world's per-country exit
// inventories.
func NewNetwork(w *worldgen.World) *Network {
	rng := stats.NewRNG(w.Cfg.Seed).Fork("proxy")
	n := &Network{World: w, exits: make(map[geo.CountryCode][]*Exit)}
	countries := w.Geo.Countries()
	for _, c := range countries {
		if c.LuminatiExits == 0 {
			continue
		}
		crng := rng.Fork(string(c.Code))
		count := c.LuminatiExits
		if count > maxExitsPerCountry {
			count = maxExitsPerCountry
		}
		base := 0.975
		switch {
		case c.Flaky:
			base = 0.55
		case c.Code == "KM": // Comoros: the paper's 76.4% response-rate outlier
			base = 0.80
		case c.Sanctioned:
			// Sanctioned countries' residential connectivity is the
			// study's noisiest: throttled uplinks, intermittent power.
			base = 0.93
		case c.GDPTier == 5:
			base = 0.95
		}
		exits := make([]*Exit, count)
		for i := range exits {
			e := &Exit{
				Claimed:     c.Code,
				Reliability: clampProb(base - 0.15*crng.Float64()),
			}
			e.CorporateFirewall = crng.Bool(0.08)
			switch {
			case crng.Bool(0.015):
				// Mislocated: the machine's address geolocates to a
				// nearby (table-adjacent) country.
				e.Mislocated = true
				other := countries[(indexOf(countries, c.Code)+1+crng.Intn(4))%len(countries)]
				e.IP = mustExitIP(w, other.Code, crng.Uint64())
			case c.Code == "UA" && crng.Bool(0.06):
				e.InCrimea = true
				e.IP = w.Geo.CrimeaHostIP(crng.Uint64())
			default:
				e.IP = mustExitIP(w, c.Code, crng.Uint64())
			}
			exits[i] = e
		}
		n.exits[c.Code] = exits
	}
	return n
}

func indexOf(cs []geo.Country, code geo.CountryCode) int {
	for i, c := range cs {
		if c.Code == code {
			return i
		}
	}
	return 0
}

// mustExitIP mints a proxy-exit address: exit machines run the Hola
// client, and their addresses sit in the proxy-flagged slice that
// commercial blacklists cover (§3.2's bot-defense fate sharing).
func mustExitIP(w *worldgen.World, cc geo.CountryCode, n uint64) geo.IP {
	ip, err := w.Geo.ProxyExitIP(cc, n)
	if err != nil {
		panic(err)
	}
	return ip
}

func clampProb(p float64) float64 {
	if p < 0.3 {
		return 0.3
	}
	if p > 1 {
		return 1
	}
	return p
}

// Countries returns the codes with at least one exit, sorted.
func (n *Network) Countries() []geo.CountryCode {
	var out []geo.CountryCode
	for _, c := range n.World.Geo.Countries() {
		if len(n.exits[c.Code]) > 0 {
			out = append(out, c.Code)
		}
	}
	return out
}

// Exits exposes a country's inventory (for diagnostics and tests).
func (n *Network) Exits(cc geo.CountryCode) []*Exit { return n.exits[cc] }

// ErrNoExits is returned when a country has no residential exits.
type ErrNoExits struct{ Country geo.CountryCode }

func (e *ErrNoExits) Error() string {
	return fmt.Sprintf("proxy: no exits available in %s", e.Country)
}

// ErrBrownout is returned when the superproxy fronting a country is
// (transiently) refusing to open sessions. Unlike ErrNoExits it is
// worth retrying: brownouts clear.
type ErrBrownout struct {
	Country geo.CountryCode
	Attempt int
}

func (e *ErrBrownout) Error() string {
	return fmt.Sprintf("proxy: superproxy brownout in %s (open attempt %d)", e.Country, e.Attempt)
}

// Session is a sticky proxy session: requests flow through one exit
// until the caller rotates. Sessions are not safe for concurrent use;
// open one per worker, as the real superproxy protocol does.
type Session struct {
	net   *Network
	cc    geo.CountryCode
	exits []*Exit
	cur   int
	used  int

	stack vnet.Stack // the current exit's stack, located when the session lands on it
	path  transit    // the country's transit draw
}

// land locates the stack of the exit the session now stands on.
func (s *Session) land() { s.stack = vnet.At(s.net.World, s.Exit().IP) }

// NewSession opens a session exiting in cc, starting at a
// deterministic position derived from slot (workers pass distinct
// slots to spread over the inventory).
func (n *Network) NewSession(cc geo.CountryCode, slot uint64) (*Session, error) {
	return n.NewSessionAttempt(cc, slot, 0)
}

// NewSessionAttempt is NewSession with an explicit 0-based open-attempt
// index, which the fault hook consults for superproxy brownouts: a
// browned-out open fails with *ErrBrownout, and retrying with a higher
// attempt may succeed once the brownout clears.
func (n *Network) NewSessionAttempt(cc geo.CountryCode, slot uint64, attempt int) (*Session, error) {
	exits := n.exits[cc]
	if len(exits) == 0 {
		return nil, &ErrNoExits{Country: cc}
	}
	if n.faults != nil && n.faults.Brownout(cc, slot, attempt) {
		return nil, &ErrBrownout{Country: cc, Attempt: attempt}
	}
	return n.open(cc, exits, slot), nil
}

// open opens a session over exits, starting at the position slot picks.
func (n *Network) open(cc geo.CountryCode, exits []*Exit, slot uint64) *Session {
	s := &Session{
		net:   n,
		cc:    cc,
		exits: exits,
		cur:   int(stats.Mix64(slot) % uint64(len(exits))),
		path:  transitOf(cc, n.World.Geo),
	}
	s.land()
	return s
}

// NewRegionSession opens a session restricted to cc's exits inside (or
// outside) the Crimea region — the sub-national vantage selection the
// paper's §4.2.2 observation calls for.
func (n *Network) NewRegionSession(cc geo.CountryCode, crimea bool, slot uint64) (*Session, error) {
	var filtered []*Exit
	for _, e := range n.exits[cc] {
		if e.InCrimea == crimea && !e.Mislocated {
			filtered = append(filtered, e)
		}
	}
	if len(filtered) == 0 {
		return nil, &ErrNoExits{Country: cc}
	}
	return n.open(cc, filtered, slot), nil
}

// Exit returns the session's current exit.
func (s *Session) Exit() *Exit { return s.exits[s.cur] }

// InventorySize is the number of exits the session rotates over — the
// upper bound on how many distinct machines a probe sweep can reach.
func (s *Session) InventorySize() int { return len(s.exits) }

// Rotate moves the session to the next exit machine.
func (s *Session) Rotate() {
	s.cur = (s.cur + 1) % len(s.exits)
	s.used = 0
	s.land()
}

// Used returns how many requests the current exit has served.
func (s *Session) Used() int { return s.used }

// Verify performs the connectivity pre-check Lumscan runs before
// scanning: a request to a platform-controlled page that echoes the
// exit's address and advertised geolocation. It fails when the exit is
// (transiently) broken.
func (s *Session) Verify(seed uint64) (geo.IP, geo.CountryCode, error) {
	e := s.Exit()
	if s.net.faults != nil && s.net.faults.ExitDark(s.cc, e.IP) {
		return 0, "", errExitDark
	}
	rng := stats.NewRNG(stats.Mix64(seed) ^ uint64(e.IP) ^ 0xc0ffee)
	if !rng.Bool(e.Reliability) {
		return 0, "", errExitUnavailable
	}
	return e.IP, e.Claimed, nil
}

// The connectivity pre-check's failures.
var (
	errExitDark        = &vnet.OpError{Op: "proxy", Host: "lumtest.example", Msg: "exit dark"}
	errExitUnavailable = &vnet.OpError{Op: "proxy", Host: "lumtest.example", Msg: "exit unavailable"}
)

// RoundTrip implements http.RoundTripper as an adapter over Probe, the
// transport that Config.WrapTransport wraps in internal/scanner.
// Program code sends hops through Probe (scanner.Fetch for a one-off
// fetch).
func (s *Session) RoundTrip(req *http.Request) (*http.Response, error) {
	var r vnet.Reply
	if err := s.Probe(vnet.ProbeOf(req, s.Exit().IP), &r); err != nil {
		return nil, err
	}
	return r.Response(req), nil
}

// Resolve resolves host into d for the probes the session sends,
// together with the transit verdict from the session's country.
func (s *Session) Resolve(host string, d *vnet.Dest) {
	s.stack.Resolve(host, d)
	d.PathDown = s.path.down(d.Hash)
}

// Probe sends p through the session's current exit, charging the exit
// one request of its budget for every hop the probe takes. It applies,
// in order: injected faults, the platform's own domain policy
// (X-Luminati-Error), the path from the exit's country, the exit's
// reliability, the exit's local firewall, and then the real network
// path from the exit's address, which follows the site's same-site
// redirects within p.MaxHops. The answer is written into r, as
// vnet.Stack.Probe writes it. Every check keys on the destination's
// site name, whatever the spelling of p.Host.
func (s *Session) Probe(p vnet.Probe, r *vnet.Reply) error {
	e := s.Exit()
	d := p.Dest
	if d == nil {
		d = new(vnet.Dest)
		s.Resolve(p.Host, d)
		p.Dest = d
	}
	host := d.Name
	rng := stats.NewRNG(stats.Mix64(p.Seed) ^ uint64(e.IP) ^ d.Hash)

	// Injected faults sit in front of the mesh's organic error
	// structure, so a chaos run layers on top of (never replaces) the
	// paper's baseline unreliability.
	truncate, err := s.send(e, d, p.Seed)
	if err != nil {
		return err
	}

	if d.Domain != nil && d.Domain.LuminatiRestricted {
		r.Refuse()
		return nil
	}

	// Path-level unreachability: some (country, destination) pairs
	// never connect — broken transit, MTU black holes, filtered
	// upstreams. The verdict is stable per pair, so retries and exit
	// rotation cannot fix it: this is what keeps even well-connected
	// countries at the paper's 89–94% per-domain response rates, and
	// what buries Comoros at ~76% (§4.1.1).
	if d.PathDown {
		return d.Fail("dial", host, "i/o timeout", true)
	}

	if !rng.Bool(e.Reliability) {
		return d.Fail("proxy", host, "superproxy: exit connection failed", false)
	}

	// Corporate firewalls block a stable slice of domains for the
	// machines behind them (the paper's suspected source of local
	// interference, §4.2).
	if e.CorporateFirewall && stats.Mix64(d.Hash^uint64(e.IP))%100 < 4 {
		return d.Fail("read", host, "connection reset by local filter", false)
	}

	if err := s.stack.Probe(p, r); err != nil {
		return err
	}
	// The edge followed r.Hops-1 same-site redirects past the first
	// hop. Every check above but the fault hook's, and every check of
	// the stack and the edge, keys on the attempt's seed, the exit, the
	// destination's name, the exit's location, the clock and the header
	// verdict, and no same-site hop changes any of those: sent one by
	// one, each further hop passes them as the first did. What a further
	// hop does change is the exit's budget and the served count churn
	// keys on, so each one is charged here and consults the hook again,
	// in hop order.
	for hop := 1; hop < r.Hops; hop++ {
		if truncate, err = s.send(e, d, p.Seed); err != nil {
			return err
		}
	}
	if truncate {
		// The transfer dies after a seed-determined prefix, the way a
		// dropped residential uplink looks to the client.
		r.Truncate(int(stats.Mix64(p.Seed^0x7c1) % 512))
	}
	return nil
}

// send charges the exit one request of its budget for a hop to d and
// draws the hop's injected faults: a dark exit, or one that has churned
// by this request, fails it, and so may the request's own verdict,
// which otherwise reports whether the hop's transfer is cut mid-body.
func (s *Session) send(e *Exit, d *vnet.Dest, seed uint64) (truncate bool, err error) {
	served := s.used
	s.used++
	f := s.net.faults
	if f == nil {
		return false, nil
	}
	if f.ExitDark(s.cc, e.IP) || f.Churned(s.cc, e.IP, served) {
		return false, d.Fail("proxy", d.Name, "superproxy: exit connection failed", false)
	}
	switch f.Request(s.cc, e.IP, d.Name, seed) {
	case FaultExitDown:
		return false, d.Fail("proxy", d.Name, "superproxy: exit connection failed", false)
	case FaultStall:
		return false, d.Fail("read", d.Name, "i/o timeout", true)
	case FaultReset:
		return false, d.Fail("read", d.Name, "connection reset by peer", false)
	case FaultTruncate:
		return true, nil
	}
	return false, nil
}

// transit is a country's share of unreachable destinations and the
// hash the per-destination draw mixes in: the inputs of the stable
// per-(country, destination) transit verdict.
type transit struct {
	rate uint64 // unreachable destinations, in 1/1000
	cc   uint64 // stats.Hash of the country code
}

func transitOf(cc geo.CountryCode, db *geo.DB) transit {
	rate := uint64(50) // 5.0% baseline
	if c, ok := db.Country(cc); ok {
		switch {
		case c.Flaky:
			rate = 300
		case cc == "KM":
			rate = 200
		case c.GDPTier == 5:
			rate = 80
		}
	}
	return transit{rate: rate, cc: stats.Hash(string(cc))}
}

// down draws the verdict for the destination whose name hashes to name.
func (t transit) down(name uint64) bool {
	return stats.Mix64(t.cc^name^0x9a7)%1000 < t.rate
}
