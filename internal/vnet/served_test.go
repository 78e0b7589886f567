package vnet

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"geoblock/internal/geo"
)

var update = flag.Bool("update", false, "rewrite the served-bytes golden file")

// TestServedGolden pins what the stack and the edge serve, byte for
// byte, over the test world's Top-10K from eight countries, to a
// browser and to a crawler sending the Akamai debug Pragma: status,
// lengths, hops, Location, every response header and every body under
// 4 KB (block, junk and censorship pages, and short origin pages). The
// golden holds one count and SHA-256 per page class, so a difference
// names the class it is in: the edge's ray IDs, nonces and client
// addresses, its provider headers, the junk token and the censorship
// page's nonce all land in some class's digest.
func TestServedGolden(t *testing.T) {
	browser := http.Header{"User-Agent": {"Mozilla/5.0"}, "Accept": {"text/html"}, "Accept-Language": {"en-US"}}
	crawler := http.Header{"Pragma": {"akamai-x-cache-on, akamai-x-get-cache-key"}}
	counts := map[string]int{}
	sums := map[string]hash.Hash{}
	response := func(class string) hash.Hash {
		if sums[class] == nil {
			sums[class] = sha256.New()
		}
		counts[class]++
		return sums[class]
	}
	for _, cc := range []geo.CountryCode{"IR", "SY", "CN", "RU", "CU", "US", "DE", "BR"} {
		ip, err := testWorld.Geo.HostIP(cc, 11)
		if err != nil {
			t.Fatal(err)
		}
		st := At(testWorld, ip)
		var r Reply
		for i, d := range testWorld.Top10K() {
			for hi, h := range []http.Header{browser, crawler} {
				p := Probe{Scheme: "http", Host: d.Name, Path: "/", Seed: uint64(i*31 + hi), Header: h, MaxHops: 1 + 9*(i%2)}
				if err := st.Probe(p, &r); err != nil {
					fmt.Fprintf(response("error"), "%s %s %v\n", cc, d.Name, err)
					continue
				}
				class := r.edge.Page.String()
				switch {
				case r.censored:
					class = "censored"
				case r.Redirect:
					class = "redirect"
				}
				sum := response(class)
				fmt.Fprintf(sum, "%s %s %d %d %d %q\n", cc, d.Name, r.Status, r.BodyLen, r.Hops, r.Location())
				hd := r.Header()
				keys := make([]string, 0, len(hd))
				for k := range hd {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(sum, "%s: %q\n", k, hd[k])
				}
				if r.BodyLen < 4<<10 {
					body, err := r.Body()
					fmt.Fprintf(sum, "%v %d\n%s", err, len(body), body)
				}
			}
		}
	}
	classes := make([]string, 0, len(sums))
	for c := range sums {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var b strings.Builder
	for _, c := range classes {
		fmt.Fprintf(&b, "%q responses=%d sha256=%x\n", c, counts[c], sums[c].Sum(nil))
	}
	got := b.String()

	path := filepath.Join("testdata", "served.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("served bytes differ from %s:\n got\n%s\nwant\n%s", path, got, want)
	}
}
