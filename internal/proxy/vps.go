package proxy

import (
	"geoblock/internal/geo"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

// VPS is one datacenter vantage point of the validation fleet: a stable
// address, no residential noise, correct geolocation (the paper
// verified each VPS's location against Cloudflare's geolocation
// headers, §2.2).
type VPS struct {
	Country geo.CountryCode
	IP      geo.IP
	stack   *vnet.Stack
}

// Stack returns the VPS's network stack.
func (v *VPS) Stack() *vnet.Stack { return v.stack }

// VPSCountries is the paper's 16-country fleet: 9 spanning the GDP
// range plus 7 chosen for known sanctions or content-availability
// reputations (§2.2).
func VPSCountries() []geo.CountryCode {
	return []geo.CountryCode{
		"IR", "IL", "TR", "RU", "KH", "CH", "AT", "BY",
		"LV", "US", "CA", "BR", "NG", "EG", "KE", "NZ",
	}
}

// VPSFleet provisions one VPS in each of the listed countries. The
// host index keeps VPS addresses away from the residential pool.
func VPSFleet(w *worldgen.World, countries []geo.CountryCode) []*VPS {
	out := make([]*VPS, 0, len(countries))
	for i, cc := range countries {
		var ip geo.IP
		var err error
		// VPS providers recommended by local activists run clean
		// address space: skip addresses on the public anonymizer lists.
		for n := uint64(100 + i); ; n++ {
			ip, err = w.Geo.DatacenterIP(cc, n)
			if err != nil || !w.Geo.IsAnonymizer(ip) {
				break
			}
		}
		if err != nil {
			continue
		}
		out = append(out, &VPS{Country: cc, IP: ip, stack: vnet.NewStack(w, ip)})
	}
	return out
}
