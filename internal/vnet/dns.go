package vnet

import (
	"fmt"
	"strings"

	"geoblock/internal/geo"
	"geoblock/internal/worldgen"
)

// Resolver is the simulated DNS the discovery tooling queries: A
// records for domains, NS records for the DNS-based customer discovery
// of §3.1, and the SPF-style TXT tree Google publishes for App Engine
// netblock discovery (§5.1.1).
type Resolver struct {
	World *worldgen.World
}

// GoogleNetblockRoot is the name whose recursive TXT resolution yields
// the App Engine address blocks.
const GoogleNetblockRoot = "_cloud-netblocks.googleusercontent.example"

// LookupA resolves name to its IPv4 address; ok is false for NXDOMAIN.
func (r *Resolver) LookupA(name string) (geo.IP, bool) {
	return r.World.ResolveA(SiteName(name))
}

// LookupNS returns the authoritative nameservers for name.
func (r *Resolver) LookupNS(name string) []string {
	return r.World.NS(SiteName(name))
}

// LookupTXT returns TXT records. Only the Google netblock tree is
// populated: the root record includes four child records, each carrying
// ip4: terms for a quarter of the netblocks.
func (r *Resolver) LookupTXT(name string) []string {
	name = strings.ToLower(name)
	nets := worldgen.GAENetblocks()
	const children = 4
	per := (len(nets) + children - 1) / children

	if name == GoogleNetblockRoot {
		var b strings.Builder
		b.WriteString("v=spf1")
		for i := 0; i < children; i++ {
			fmt.Fprintf(&b, " include:_cloud-netblocks%d.googleusercontent.example", i+1)
		}
		b.WriteString(" ?all")
		return []string{b.String()}
	}

	for i := 0; i < children; i++ {
		if name != fmt.Sprintf("_cloud-netblocks%d.googleusercontent.example", i+1) {
			continue
		}
		var b strings.Builder
		b.WriteString("v=spf1")
		for j := i * per; j < (i+1)*per && j < len(nets); j++ {
			b.WriteString(" ip4:" + cidrOf(nets[j]))
		}
		b.WriteString(" ?all")
		return []string{b.String()}
	}
	return nil
}

// cidrOf formats a power-of-two aligned range as CIDR notation.
func cidrOf(r geo.Range) string {
	span := uint32(r.Hi - r.Lo)
	bits := 32
	for span > 1 {
		span >>= 1
		bits--
	}
	return fmt.Sprintf("%s/%d", r.Lo.Addr(), bits)
}

// ParseSPF extracts the include: targets and ip4: CIDR ranges from an
// SPF-style TXT record.
func ParseSPF(txt string) (includes []string, cidrs []string) {
	for _, f := range strings.Fields(txt) {
		switch {
		case strings.HasPrefix(f, "include:"):
			includes = append(includes, strings.TrimPrefix(f, "include:"))
		case strings.HasPrefix(f, "ip4:"):
			cidrs = append(cidrs, strings.TrimPrefix(f, "ip4:"))
		}
	}
	return includes, cidrs
}

// ParseCIDR converts "a.b.c.d/len" into a half-open range.
func ParseCIDR(s string) (geo.Range, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return geo.Range{}, fmt.Errorf("vnet: bad CIDR %q", s)
	}
	var a, b, c, d, bits int
	if _, err := fmt.Sscanf(s[:i], "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return geo.Range{}, fmt.Errorf("vnet: bad CIDR %q: %w", s, err)
	}
	if _, err := fmt.Sscanf(s[i+1:], "%d", &bits); err != nil || bits < 8 || bits > 32 {
		return geo.Range{}, fmt.Errorf("vnet: bad prefix length in %q", s)
	}
	lo := geo.IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
	span := geo.IP(1) << (32 - bits)
	return geo.Range{Lo: lo, Hi: lo + span}, nil
}
