package blockpage

import "fmt"

// JunkKind is one of the shared non-block "junk" pages that real scans
// hit constantly: default vhost pages, maintenance interstitials,
// framework error pages. They are much shorter than the site's real
// page, so the length heuristic extracts them as outliers — and because
// they are near-identical across thousands of unrelated sites, they
// collapse into a handful of large clusters during the §4.1.3 manual
// examination (most of the paper's 119 clusters were content like
// this, not block pages).
type JunkKind int

const (
	// JunkNginxDefault is the "Welcome to nginx!" default vhost page.
	JunkNginxDefault JunkKind = iota
	// JunkApacheDefault is the Apache2 Ubuntu default page (trimmed).
	JunkApacheDefault
	// JunkMaintenance is a generic "be right back" interstitial.
	JunkMaintenance
	// JunkEmptyApp is a framework skeleton page (SPA shell with no
	// rendered content).
	JunkEmptyApp
	// JunkParked is a registrar parking page.
	JunkParked
)

// JunkKinds lists every junk page class.
func JunkKinds() []JunkKind {
	return []JunkKind{JunkNginxDefault, JunkApacheDefault, JunkMaintenance, JunkEmptyApp, JunkParked}
}

// RenderJunk produces the junk page, in at most one allocation. The
// body is almost entirely template; only a tiny per-site token varies,
// so instances cluster.
func RenderJunk(k JunkKind, domain string, nonce string) string {
	page, args, n := junkPage(k, domain, nonce)
	if n == 0 {
		return page
	}
	return fill(page, args[:n]...)
}

// JunkLen is len(RenderJunk(k, domain, nonce)), worked out from the
// template without rendering the page.
func JunkLen(k JunkKind, domain string, nonce string) int {
	page, args, n := junkPage(k, domain, nonce)
	return fillLen(page, args[:n]...)
}

// junkPage returns junk page k's template and the first n of args, the
// values of its %s verbs in order.
func junkPage(k JunkKind, domain, nonce string) (page string, args [2]string, n int) {
	switch k {
	case JunkNginxDefault:
		return nginxDefaultPage, args, 0
	case JunkApacheDefault:
		return apacheDefaultPage, args, 0
	case JunkMaintenance:
		return maintenancePage, [2]string{nonce}, 1
	case JunkEmptyApp:
		return emptyAppPage, [2]string{nonce}, 1
	case JunkParked:
		return parkedPage, [2]string{domain, domain}, 2
	}
	panic(fmt.Sprintf("blockpage: junk page of kind %d", int(k)))
}

// The junk pages. The first two hold no verb and no %%; fill
// substitutes the %s verbs of the others.

const nginxDefaultPage = `<!DOCTYPE html>
<html>
<head>
<title>Welcome to nginx!</title>
<style>
    body { width: 35em; margin: 0 auto; font-family: Tahoma, Verdana, Arial, sans-serif; }
</style>
</head>
<body>
<h1>Welcome to nginx!</h1>
<p>If you see this page, the nginx web server is successfully installed and
working. Further configuration is required.</p>
<p>For online documentation and support please refer to
<a href="http://nginx.org/">nginx.org</a>.<br/>
Commercial support is available at
<a href="http://nginx.com/">nginx.com</a>.</p>
<p><em>Thank you for using nginx.</em></p>
</body>
</html>
`

const apacheDefaultPage = `<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0 Transitional//EN" "http://www.w3.org/TR/xhtml1/DTD/xhtml1-transitional.dtd">
<html xmlns="http://www.w3.org/1999/xhtml">
  <head>
    <title>Apache2 Ubuntu Default Page: It works</title>
  </head>
  <body>
    <div class="main_page">
      <div class="page_header floating_element">
        Apache2 Ubuntu Default Page
      </div>
      <p>This is the default welcome page used to test the correct
      operation of the Apache2 server after installation on Ubuntu systems.
      If you can read this page, it means that the Apache HTTP server
      installed at this site is working properly. You should <b>replace
      this file</b> before continuing to operate your HTTP server.</p>
    </div>
  </body>
</html>
`

const maintenancePage = `<!DOCTYPE html>
<html lang="en">
<head><title>We'll be right back</title><meta charset="utf-8"></head>
<body style="text-align:center;font-family:sans-serif;padding-top:80px">
<h1>We&rsquo;ll be right back.</h1>
<p>We're performing scheduled maintenance and will be back online shortly.</p>
<p>Thank you for your patience.</p>
<!-- mid:%s -->
</body>
</html>
`

const emptyAppPage = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Loading…</title>
<script src="/static/js/app.%s.js" defer></script>
<link rel="stylesheet" href="/static/css/app.css">
</head>
<body>
<noscript>You need to enable JavaScript to run this app.</noscript>
<div id="root"></div>
</body>
</html>
`

const parkedPage = `<!DOCTYPE html>
<html>
<head><title>%s</title></head>
<body>
<h1>%s</h1>
<p>This domain is parked free of charge with our domain parking service.</p>
<p>The domain owner has not yet uploaded a website. Interested in this
domain? Contact the owner through our brokerage service.</p>
</body>
</html>
`
