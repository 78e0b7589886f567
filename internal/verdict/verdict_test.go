package verdict

import (
	"fmt"
	"strings"
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
)

func testSource() Source {
	return Source{
		Version:   7,
		Seed:      11,
		Domains:   []string{"news.example", "video.example", "shop.example", "mail.example"},
		Countries: []geo.CountryCode{"CN", "IR", "US", "DE"},
		Entries: []Entry{
			{Domain: "news.example", Country: "CN", Kind: blockpage.Censorship},
			{Domain: "video.example", Country: "CN", Kind: blockpage.Cloudflare},
			{Domain: "news.example", Country: "IR", Kind: blockpage.Akamai},
			{Domain: "shop.example", Country: "DE", Kind: blockpage.Legal451},
		},
	}
}

func TestCompileAndLookup(t *testing.T) {
	s, err := Compile(testSource())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := s.Version(); got != 7 {
		t.Fatalf("Version = %d, want 7", got)
	}
	if got := s.Seed(); got != 11 {
		t.Fatalf("Seed = %d, want 11", got)
	}
	if got := s.Blocked(); got != 4 {
		t.Fatalf("Blocked = %d, want 4", got)
	}
	if len(s.Domains()) != 4 || len(s.Countries()) != 4 {
		t.Fatalf("universe = %d domains × %d countries, want 4×4", len(s.Domains()), len(s.Countries()))
	}

	cases := []struct {
		dom  string
		cc   geo.CountryCode
		ok   bool
		want Verdict
	}{
		{"news.example", "CN", true, Verdict{Blocked: true, Kind: blockpage.Censorship}},
		{"video.example", "CN", true, Verdict{Blocked: true, Kind: blockpage.Cloudflare}},
		{"news.example", "IR", true, Verdict{Blocked: true, Kind: blockpage.Akamai}},
		{"shop.example", "DE", true, Verdict{Blocked: true, Kind: blockpage.Legal451}},
		{"shop.example", "CN", true, Verdict{}},
		{"mail.example", "US", true, Verdict{}},
		{"news.example", "US", true, Verdict{}},
		{"absent.example", "CN", false, Verdict{}},
		{"news.example", "ZZ", false, Verdict{}},
		{"", "", false, Verdict{}},
	}
	for _, c := range cases {
		v, ok := s.Lookup(c.dom, c.cc)
		if ok != c.ok || v != c.want {
			t.Errorf("Lookup(%q, %q) = %+v, %v; want %+v, %v", c.dom, c.cc, v, ok, c.want, c.ok)
		}
	}

	if s.ETag() == "" || s.ETag()[0] != '"' {
		t.Fatalf("ETag %q is not a quoted strong validator", s.ETag())
	}
}

func TestCompileDedupsAndCollapsesDuplicates(t *testing.T) {
	src := testSource()
	src.Domains = append(src.Domains, "news.example", "news.example")
	src.Countries = append(src.Countries, "CN")
	src.Entries = append(src.Entries, Entry{Domain: "news.example", Country: "CN", Kind: blockpage.Censorship})
	s, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile with duplicates: %v", err)
	}
	if len(s.Domains()) != 4 || len(s.Countries()) != 4 {
		t.Fatalf("dedup left %d domains × %d countries", len(s.Domains()), len(s.Countries()))
	}
	if s.Blocked() != 4 {
		t.Fatalf("duplicate identical entry inflated Blocked to %d", s.Blocked())
	}
	want, err := Compile(testSource())
	if err != nil {
		t.Fatal(err)
	}
	if s.ETag() != want.ETag() {
		t.Fatalf("duplicate inputs changed the canonical encoding: %s vs %s", s.ETag(), want.ETag())
	}
}

func TestCompileRejectsBadEntries(t *testing.T) {
	for name, mut := range map[string]func(*Source){
		"unknown domain":  func(s *Source) { s.Entries[0].Domain = "absent.example" },
		"unknown country": func(s *Source) { s.Entries[0].Country = "ZZ" },
		"conflicting kind": func(s *Source) {
			s.Entries = append(s.Entries, Entry{Domain: "news.example", Country: "CN", Kind: blockpage.Akamai})
		},
		"kind out of wire range": func(s *Source) { s.Entries[0].Kind = blockpage.Kind(300) },
	} {
		src := testSource()
		mut(&src)
		if _, err := Compile(src); err == nil {
			t.Errorf("%s: Compile accepted invalid source", name)
		}
	}
}

func TestLookupIsAllocationFree(t *testing.T) {
	s, err := Compile(testSource())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Lookup("news.example", "CN")
		s.Lookup("mail.example", "US")
		s.Lookup("absent.example", "CN")
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %.1f objects per three calls, want 0", allocs)
	}
}

// bigSource builds a large synthetic matrix for scale-sensitive tests.
func bigSource(domains, countries, stride int) Source {
	src := Source{Version: 1, Seed: 1}
	for i := 0; i < domains; i++ {
		src.Domains = append(src.Domains, fmt.Sprintf("site-%05d.example", i))
	}
	for c := 0; c < countries; c++ {
		src.Countries = append(src.Countries, geo.CountryCode(fmt.Sprintf("%c%c", 'A'+c/26, 'A'+c%26)))
	}
	for c := 0; c < countries; c++ {
		for i := c % stride; i < domains; i += stride {
			src.Entries = append(src.Entries, Entry{
				Domain:  src.Domains[i],
				Country: src.Countries[c],
				Kind:    blockpage.Kinds()[(i+c)%len(blockpage.Kinds())],
			})
		}
	}
	return src
}

func TestCompileLargeMatrix(t *testing.T) {
	src := bigSource(1000, 50, 7)
	s, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]blockpage.Kind, len(src.Entries))
	for _, e := range src.Entries {
		want[e.Domain+"/"+string(e.Country)] = e.Kind
	}
	if s.Blocked() != len(want) {
		t.Fatalf("Blocked = %d, want %d", s.Blocked(), len(want))
	}
	for _, d := range s.Domains() {
		for _, cc := range s.Countries() {
			v, ok := s.Lookup(d, cc)
			if !ok {
				t.Fatalf("Lookup(%q, %q) outside universe", d, cc)
			}
			k, blocked := want[d+"/"+string(cc)]
			if v.Blocked != blocked || v.Kind != k {
				t.Fatalf("Lookup(%q, %q) = %+v, want blocked=%v kind=%v", d, cc, v, blocked, k)
			}
		}
	}
}

// TestCountryCodes holds the letter table and the binary search behind
// it to a map: every (domain, code) pair answers as a
// map[geo.CountryCode]int32 over the universe says, for codes of two
// upper-case letters and for every other string, in the universe or
// not, after Compile and after Decode.
func TestCountryCodes(t *testing.T) {
	odd := []geo.CountryCode{"", "U", "USA", "us", "A1", "É", "ÅL", "@A", "Z["}
	universes := map[string][]geo.CountryCode{
		"two-letter": {"AA", "CN", "DE", "IR", "US", "ZZ"},
		"mixed":      append([]geo.CountryCode{"AA", "CN", "IR", "US", "UT", "ZZ"}, odd...),
	}
	// Probes: every code of two upper-case letters, the neighbours of
	// the letter range, and each code's lower-case, three-letter and
	// one-letter twins.
	var probes []geo.CountryCode
	for a := 'A'; a <= 'Z'; a++ {
		for b := 'A'; b <= 'Z'; b++ {
			probes = append(probes, geo.CountryCode([]rune{a, b}))
		}
	}
	probes = append(probes, odd...)
	probes = append(probes, "AB", "A@", "[A", "`A", "Aa", "aA", "zz", "ZZZ", "AAA", "USA ", "US\x00", "\x00\x00", "CNN")
	for _, cc := range universes["mixed"] {
		probes = append(probes, geo.CountryCode(strings.ToLower(string(cc))), cc+"X", cc[:len(cc)/2])
	}

	for name, countries := range universes {
		src := Source{
			Version:   3,
			Domains:   []string{"a.example", "b.example"},
			Countries: countries,
		}
		for i, cc := range countries {
			src.Entries = append(src.Entries, Entry{Domain: src.Domains[i%2], Country: cc, Kind: blockpage.Kinds()[i%len(blockpage.Kinds())]})
		}
		compiled, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		decoded, err := Decode(compiled.Encode())
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		ref := make(map[geo.CountryCode]int32, len(countries))
		for i, cc := range countries {
			ref[cc] = int32(i)
		}
		for _, s := range []*Snapshot{compiled, decoded} {
			for _, cc := range probes {
				ci, in := ref[cc]
				for _, d := range src.Domains {
					v, ok := s.Lookup(d, cc)
					want := Verdict{}
					if in && src.Domains[ci%2] == d {
						want = Verdict{Blocked: true, Kind: blockpage.Kinds()[int(ci)%len(blockpage.Kinds())]}
					}
					if ok != in || v != want {
						t.Errorf("%s: Lookup(%q, %q) = %+v, %v; want %+v, %v", name, d, cc, v, ok, want, in)
					}
				}
			}
		}
	}
}
