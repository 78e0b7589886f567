package scanner

import (
	"context"
	"io"
	"net/http"
	"runtime/debug"
	"strings"
	"testing"

	"geoblock/internal/censor"
	"geoblock/internal/faults"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

// refFetch is the fetcher as it was built on net/http, kept as the
// reference implementation: one http.Client.Do per attempt over the
// transport's RoundTrip adapter, http.Client's own redirect handling
// bounded by a CheckRedirect policy, the header map copied into every
// request, and the seed carried in the request context.
func refFetch(rt http.RoundTripper, cfg Config, domain string, seed uint64, t Task, attempt uint8, exit geo.IP) Sample {
	client := &http.Client{
		Transport: rt,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			if len(via) >= MaxRedirects {
				return errRedirectLimit
			}
			return nil
		},
	}
	s := Sample{Domain: t.Domain, Country: t.Country, Attempt: attempt, Seed: seed, ExitIP: exit}
	ctx := vnet.WithSampleSeed(context.Background(), seed)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+domain+"/", nil)
	if err != nil {
		s.Err = ErrDNS
		return s
	}
	for k, v := range cfg.Headers {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		s.Err = classifyError(err)
		return s
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Luminati-Error") != "" {
		s.Err = ErrLuminati
		return s
	}
	s.Status = int16(resp.StatusCode)
	var body []byte
	bodyLen := resp.ContentLength
	if bodyLen < 0 {
		if body, err = io.ReadAll(resp.Body); err != nil {
			s.Err = ErrReset
			return s
		}
		bodyLen = int64(len(body))
	}
	s.BodyLen = int32(bodyLen)
	if cfg.Bodies.keeps(resp.StatusCode) {
		if body == nil {
			if body, err = io.ReadAll(resp.Body); err != nil {
				s.Err = ErrReset
				return s
			}
		}
		s.Body = string(body)
		s.BodyLen = int32(len(body))
	}
	return s
}

// refWorld is a small world with redirect loops and proxy-refused
// domains common enough to test: the benchmark-scale worlds hold few
// or none of either.
var refWorld = func() *worldgen.World {
	cfg := worldgen.TestConfig()
	cfg.Scale = 0.05
	cfg.LuminatiRestrictedRate = 0.03
	cfg.RedirectLoopRate = 0.03
	return worldgen.Generate(cfg)
}()

// refDomains picks up to n domains of each kind the redirect loop and
// the mesh treat specially.
func refDomains(t *testing.T, w *worldgen.World, n int) []string {
	t.Helper()
	kinds := map[string]func(*worldgen.Domain) bool{
		"loop":       func(d *worldgen.Domain) bool { return d.RedirectLoop },
		"1-hop":      func(d *worldgen.Domain) bool { return d.RedirectHops == 1 },
		"2-hop":      func(d *worldgen.Domain) bool { return d.RedirectHops == 2 },
		"restricted": func(d *worldgen.Domain) bool { return d.LuminatiRestricted },
		"censored": func(d *worldgen.Domain) bool {
			return censor.Check(d, geo.Location{Country: "IR"}) == censor.BlockPage
		},
		"direct": func(d *worldgen.Domain) bool {
			return d.RedirectHops == 0 && !d.RedirectLoop && !d.LuminatiRestricted
		},
	}
	var out []string
	for _, name := range []string{"loop", "1-hop", "2-hop", "restricted", "censored", "direct"} {
		got := 0
		for _, d := range w.Top10K() {
			if got < n && kinds[name](d) {
				out = append(out, d.Name)
				got++
			}
		}
		if got == 0 {
			t.Fatalf("the reference world holds no %s domain", name)
		}
	}
	return out
}

// TestFetchMatchesNetHTTP runs the direct probe loop and the net/http
// reference side by side on twin sessions — same country, same slot,
// same rotation schedule — and requires every Sample field and every
// attempt's exit-budget spend to agree, plain and under the truncate,
// churn and mixed chaos profiles. A third twin sends its hops through
// Config.WrapTransport, the per-hop HTTP adapter path, and a fourth
// sends the attempt as the one-off Fetch; both must agree too. Each
// twin has a network of its own, under an injector of the same seed,
// and its session counts the faults it acts on: the direct path walks
// a same-site chain in one probe, and its per-hop fault draws must
// fire exactly what the reference's hop-by-hop requests fire. Nothing
// else pins the redirect bound: the benchmark worlds hold no
// redirect-loop or proxy-refused domains.
func TestFetchMatchesNetHTTP(t *testing.T) {
	domains := refDomains(t, refWorld, 3)
	// Names that are not plain host names take the net/url path: one
	// net/url rejects, and a real domain with a port to strip.
	domains = append(domains, "bad host.example", domains[len(domains)-1]+":80")
	countries := []geo.CountryCode{"US", "IR", "CN", "DE"}
	seen := map[ErrCode]int{}
	statuses := map[int16]int{}
	for _, profile := range []string{"", "truncate", "churn", "mixed"} {
		t.Run("profile="+profile, func(t *testing.T) {
			const twins = 4 // net/http, direct, wrapped, Fetch
			var nets [twins]*proxy.Network
			for i := range nets {
				nets[i] = proxy.NewNetwork(refWorld)
				if profile != "" {
					p, _ := faults.Named(profile)
					nets[i].SetFaults(faults.New(7).Default(p))
				}
			}
			fired := false
			cfg := testConfig()
			cfg.Bodies = BodyAll // exercise the body path on every hop kind
			cfg = cfg.withDefaults()
			wrapped := cfg
			wrapped.WrapTransport = func(rt http.RoundTripper) http.RoundTripper { return rt }
			for ci, cc := range countries {
				var sessions [twins]*proxy.Session
				for i, n := range nets {
					s, err := n.NewSession(cc, uint64(ci)+11)
					if err != nil {
						t.Fatal(err)
					}
					sessions[i] = s
				}
				ref, direct, viaHTTP, viaFetch := sessions[0], sessions[1], sessions[2], sessions[3]
				var fd, fw fetcher
				fd.reset(context.Background(), direct, cfg, newHeaderSet(cfg.Headers), nil)
				fw.reset(context.Background(), viaHTTP, wrapped, newHeaderSet(wrapped.Headers), nil)
				for di, domain := range domains {
					task := Task{Domain: int32(di), Country: int16(ci)}
					tg := newTarget(refWorld, domain)
					fd.aim(&tg)
					fw.aim(&tg)
					for a := uint8(0); a < 3; a++ {
						seed := sampleSeed(domain, string(cc), "net/http-ref", int(a))
						exit := ref.Exit().IP
						before := ref.Used()
						want := refFetch(ref, cfg, domain, seed, task, a, exit)
						got := fd.fetch(seed, task, a, direct.Exit().IP)
						viaGot := fw.fetch(seed, task, a, viaHTTP.Exit().IP)
						var r vnet.Reply
						fetched := Sample{Domain: task.Domain, Country: task.Country, Attempt: a, Seed: seed, ExitIP: viaFetch.Exit().IP}
						code := Fetch(refWorld, viaFetch, domain, seed, cfg.Headers, &r)
						if want.Err == ErrLuminati && (code != ErrNone || !r.Refused) {
							t.Fatalf("%s from %s attempt %d: Fetch returned %v for a refusal, not an answer", domain, cc, a, code)
						}
						fetched = fetchedSample(code, &r, fetched)
						if got != want {
							t.Fatalf("%s from %s attempt %d: direct %+v, net/http %+v", domain, cc, a, brief(got), brief(want))
						}
						if viaGot != want {
							t.Fatalf("%s from %s attempt %d: wrapped transport %+v, net/http %+v", domain, cc, a, brief(viaGot), brief(want))
						}
						if fetched != want {
							t.Fatalf("%s from %s attempt %d: Fetch %+v, net/http %+v", domain, cc, a, brief(fetched), brief(want))
						}
						if ref.Used() != direct.Used() || ref.Used() != viaHTTP.Used() || ref.Used() != viaFetch.Used() {
							t.Fatalf("%s from %s attempt %d: exit budget spent net/http %d, direct %d, wrapped %d, Fetch %d",
								domain, cc, a, ref.Used()-before, direct.Used()-before, viaHTTP.Used()-before, viaFetch.Used()-before)
						}
						seen[want.Err]++
						statuses[want.Status]++
						if ref.Used() >= RequestsPerExit {
							for _, s := range sessions {
								s.Rotate()
							}
						}
					}
				}
				want := ref.Faults()
				for i, name := range []string{"direct", "wrapped", "Fetch"} {
					if got := sessions[i+1].Faults(); got != want {
						t.Errorf("%s: %s fired faults %+v, net/http %+v", cc, name, got, want)
					}
				}
				fired = fired || want != proxy.FaultCounts{}
			}
			if fired != (profile != "") {
				t.Fatalf("the %q profile fired faults: %v", profile, fired)
			}
		})
	}
	// The comparison is only as good as what it exercised.
	for _, code := range []ErrCode{ErrNone, ErrRedirects, ErrLuminati, ErrReset, ErrProxy, ErrTimeout} {
		if seen[code] == 0 {
			t.Errorf("no attempt ended in %v; outcomes %v", code, seen)
		}
	}
	if statuses[403] == 0 {
		t.Errorf("no attempt saw a block page; statuses %v", statuses)
	}
}

// fetchedSample fills s with what a BodyAll scan attempt records for
// Fetch's outcome: a proxy's refusal, an answer to Fetch, is the
// attempt's ErrLuminati, and a body that fails to read its ErrReset.
func fetchedSample(code ErrCode, r *vnet.Reply, s Sample) Sample {
	switch {
	case code != ErrNone:
		s.Err = code
	case r.Refused:
		s.Err = ErrLuminati
	default:
		s.Status = int16(r.Status)
		if body, err := r.Body(); err != nil {
			s.Err = ErrReset
		} else {
			s.Body, s.BodyLen = body, int32(len(body))
		}
	}
	return s
}

// brief elides a sample's body for failure messages.
func brief(s Sample) Sample {
	if len(s.Body) > 40 {
		s.Body = s.Body[:40] + "…"
	}
	return s
}

// TestFetchAllocs pins the fetcher's steady-state cost: a pass of
// direct-probe samples that keeps every body allocates exactly once
// per body it keeps — the page, rendered into one exact-size
// allocation by the edge (block pages) or when the sample reads it
// (junk and origin pages) — and nothing else; TestHopAllocs pins that
// a sample keeping nothing allocates nothing. Counting the attempts
// into a unit's metrics allocates nothing: UnitMetrics.fetched reads 0
// allocations, and a pass allocates exactly the same with metrics as
// without them. Twin sessions (same country and slot) take the same
// exits, so both fetchers do identical work apart from the counting.
// No page on the path goes through a sync.Pool (fmt's printers did),
// so the counts hold under -race too.
func TestFetchAllocs(t *testing.T) {
	domains, _ := smallInputs(64)
	cfg := testConfig()
	cfg.Bodies = BodyAll
	cfg = cfg.withDefaults()
	targets := make([]target, len(domains))
	for i, domain := range domains {
		targets[i] = newTarget(testNet.World, domain)
	}
	// pass measures one pass of samples, four over each domain, and
	// returns its allocations and the bodies it kept.
	pass := func(m *UnitMetrics) (allocs float64, kept int) {
		s, err := testNet.NewSession("DE", 5)
		if err != nil {
			t.Fatal(err)
		}
		f := new(fetcher)
		f.reset(context.Background(), s, cfg, newHeaderSet(cfg.Headers), m)
		fetchAll := func() {
			kept = 0
			for round := 0; round < 4; round++ {
				for i := range domains {
					if s.Used() >= RequestsPerExit {
						s.Rotate()
					}
					f.aim(&targets[i])
					if f.fetch(uint64(i), Task{Domain: int32(i)}, 0, s.Exit().IP).Body != "" {
						kept++
					}
				}
			}
		}
		fetchAll() // warm the world's lazy caches
		// A collection the pass's pages set off may allocate on its own.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, fetchAll), kept
	}
	bare, kept := pass(nil)
	m := new(UnitMetrics)
	counted, countedKept := pass(m)
	t.Logf("%.0f allocations for %d kept bodies in %d samples; %.0f for %d with metrics", bare, kept, 4*len(domains), counted, countedKept)
	if kept == 0 {
		t.Fatal("the pass kept no body")
	}
	if bare != float64(kept) {
		t.Fatalf("a pass that kept %d bodies allocated %.0f times", kept, bare)
	}
	if m.Attempts == 0 {
		t.Fatal("the metrics counted no attempts")
	}
	if counted != bare || countedKept != kept {
		t.Fatalf("a pass allocates %.0f times for %d bodies with metrics and %.0f for %d without", counted, countedKept, bare, kept)
	}
	s := Sample{BodyLen: 512}
	record := func() { m.fetched(&s) }
	if n := testing.AllocsPerRun(100, record); n != 0 {
		t.Fatalf("counting an attempt into a unit's metrics allocates %.1f times", n)
	}
}

// TestHopAllocs pins that a resolved task's hops allocate nothing:
// repeated direct-path samples of one task through a proxy session read
// zero allocations per attempt, whether the attempt follows a
// two-redirect chain to a 200, runs a redirect loop into the redirect
// limit (ten hops in one probe, each charged to the exit), or fails on
// an unreachable path, an unreachable domain or the exit. Each case
// takes the first domain of its kind and the first seed that ends the
// way the case names, and AllocsPerRun's warm-up run resolves the
// task. The benchmark-scale test world holds no redirect loop, so that
// case scans the reference world.
func TestHopAllocs(t *testing.T) {
	cfg := testConfig().withDefaults()
	refNet := proxy.NewNetwork(refWorld)
	for _, tc := range []struct {
		name   string
		net    *proxy.Network
		domain func(d *worldgen.Domain, pathDown bool) bool
		want   Sample // the Err and Status the attempt must end with
		hops   int    // the requests the attempt's probe takes
	}{
		{"two-redirect chain", testNet, func(d *worldgen.Domain, pathDown bool) bool {
			return d.RedirectHops == 2 && len(d.GeoRules) == 0 && d.JunkRate == 0 && !d.BlocksProxies && !pathDown
		}, Sample{Status: 200}, 3},
		{"redirect loop", refNet, func(d *worldgen.Domain, pathDown bool) bool {
			return d.RedirectLoop && len(d.GeoRules) == 0 && !d.BlocksProxies && !pathDown
		}, Sample{Err: ErrRedirects}, MaxRedirects},
		{"path unreachable", testNet, func(_ *worldgen.Domain, pathDown bool) bool { return pathDown }, Sample{Err: ErrTimeout}, 1},
		{"unreachable domain", testNet, func(d *worldgen.Domain, pathDown bool) bool { return d.Unreachable && !pathDown }, Sample{Err: ErrTimeout}, 1},
		{"exit failure", testNet, func(_ *worldgen.Domain, pathDown bool) bool { return !pathDown }, Sample{Err: ErrProxy}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.net.NewSession("DE", 5)
			if err != nil {
				t.Fatal(err)
			}
			f := new(fetcher)
			f.reset(context.Background(), s, cfg, newHeaderSet(cfg.Headers), nil)
			var domain string
			for _, d := range tc.net.World.Top10K() {
				dest := vnet.Resolve(tc.net.World, d.Name)
				if tc.domain(d, s.PathDown(&dest)) {
					domain = d.Name
					break
				}
			}
			if domain == "" {
				t.Fatal("the test world holds no such domain")
			}
			tg := newTarget(tc.net.World, domain)
			f.aim(&tg)
			task, exit := Task{}, s.Exit().IP
			seed := uint64(0)
			for ; seed < 1000; seed++ {
				if got := f.fetch(seed, task, 0, exit); got.Err == tc.want.Err && got.Status == tc.want.Status {
					break
				}
			}
			if seed == 1000 {
				t.Fatalf("no seed ends %s with %v, status %d", domain, tc.want.Err, tc.want.Status)
			}
			before := s.Used()
			f.fetch(seed, task, 0, exit)
			if spent := s.Used() - before; spent != tc.hops {
				t.Errorf("%s, seed %d: the attempt charged the exit %d requests, want %d", domain, seed, spent, tc.hops)
			}
			if answered := tc.want.Err == ErrNone || tc.want.Err == ErrRedirects; answered && f.reply.Hops != tc.hops {
				t.Errorf("%s, seed %d: the probe took %d hops, want %d", domain, seed, f.reply.Hops, tc.hops)
			}
			if allocs := testing.AllocsPerRun(100, func() { f.fetch(seed, task, 0, exit) }); allocs != 0 {
				t.Errorf("%s, seed %d: %.2f allocations per attempt", domain, seed, allocs)
			}
		})
	}
}

// TestNextHop pins how a redirect's Location becomes the next hop:
// plain absolute URLs split as is, everything else resolves the way
// http.Client resolves it.
func TestNextHop(t *testing.T) {
	from := vnet.Probe{Scheme: "http", Host: "a.example", Path: "/a", Seed: 9}
	for _, tc := range []struct{ loc, scheme, host, path string }{
		{"https://a.example/", "https", "a.example", "/"},
		{"https://www.a.example/b", "https", "www.a.example", "/b"},
		{"https://a.example", "https", "a.example", ""},
		{"/b", "http", "a.example", "/b"},
		{"b", "http", "a.example", "/b"},
		{"https://a.example:8443/x?y=1#z", "https", "a.example", "/x"},
		{"HTTPS://A.example/%7Ex", "https", "A.example", "/~x"},
		{"//b.example/c", "http", "b.example", "/c"},
	} {
		p, err := nextHop(from, tc.loc)
		if err != nil {
			t.Fatalf("%q: %v", tc.loc, err)
		}
		if p.Scheme != tc.scheme || p.Host != tc.host || p.Path != tc.path || p.Seed != from.Seed {
			t.Errorf("%q -> %s://%s%s (seed %d), want %s://%s%s", tc.loc, p.Scheme, p.Host, p.Path, p.Seed, tc.scheme, tc.host, tc.path)
		}
	}
	if _, err := nextHop(from, "http://[::1"); err == nil {
		t.Error("an unparseable Location must fail the attempt")
	}
}

// TestReplayReproducesSample re-fetches scanned samples from their
// exits and seeds: the body and status must be the ones the scan saw,
// and a redirect loop must still fail.
func TestReplayReproducesSample(t *testing.T) {
	domains := refDomains(t, refWorld, 2)
	countries := []geo.CountryCode{"IR", "US"}
	cfg := testConfig()
	cfg.Bodies = BodyAll
	res, err := Scan(context.Background(), proxy.NewNetwork(refWorld), domains, countries, CrossProduct(len(domains), len(countries)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, s := range res.Samples {
		if !s.OK() {
			continue
		}
		body, status, err := Replay(refWorld, domains[s.Domain], s.ExitIP, s.Seed, BrowserHeaders(), MaxRedirects)
		if err != nil {
			t.Fatalf("replay %s: %v", domains[s.Domain], err)
		}
		if body != s.Body || status != int(s.Status) {
			t.Fatalf("replay %s: %d/%d bytes, scanned %d/%d bytes", domains[s.Domain], status, len(body), s.Status, len(s.Body))
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("nothing to replay")
	}
	for _, d := range refWorld.Top10K() {
		if d.RedirectLoop {
			if _, _, err := Replay(refWorld, d.Name, res.Samples[0].ExitIP, 1, BrowserHeaders(), 10); err == nil || !strings.Contains(err.Error(), d.Name) {
				t.Fatalf("replaying redirect loop %s: err = %v", d.Name, err)
			}
			break
		}
	}
}
