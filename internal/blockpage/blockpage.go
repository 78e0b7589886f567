// Package blockpage holds the HTML the simulated Internet serves when a
// request is denied: one template per fingerprint class the paper
// identifies (Table 2), a national-censorship page used by the censor
// substrate, and the generator for ordinary origin pages.
//
// Fidelity matters here: the paper's detection pipeline keys on the
// distinguishing boilerplate of each provider's page, on whether the
// page explicitly states a geographic reason, and on page length
// relative to the blocked site's real page. The templates therefore
// carry the same signature tokens and comparable lengths to their
// real-world counterparts, with the request-specific fields (ray IDs,
// reference numbers, client IPs) varying per response exactly where the
// real pages vary.
//
// A page renders only when its body is read (Len and JunkLen give its
// length from the template), and then into one exactly sized
// allocation: the templates' only verbs are %s and %%, which fill
// substitutes without fmt, and an origin page writes its head, filler,
// foot and dynamic slots into one builder sized by VariantLength.
package blockpage

import (
	"bytes"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind identifies one block-page class.
type Kind int

// The 14 classes of Table 2, in the paper's row order, plus the
// censorship page and the sentinel KindNone.
const (
	KindNone Kind = iota
	Akamai
	Cloudflare
	AppEngine
	CloudflareCaptcha
	CloudflareJS
	CloudFront
	BaiduCaptcha
	Baidu
	Incapsula
	Soasta
	Airbnb
	DistilCaptcha
	Nginx
	Varnish
	Censorship
	// Legal451 is the RFC 7725 "Unavailable For Legal Reasons" page —
	// the right way to signal legally mandated denial, which the paper
	// "only observed ... twice in the course of our experiments" (§2.1).
	Legal451
)

// Kinds lists every real block-page class (excluding KindNone and the
// censorship page) in Table 2 order.
func Kinds() []Kind {
	return []Kind{
		Akamai, Cloudflare, AppEngine, CloudflareCaptcha, CloudflareJS,
		CloudFront, BaiduCaptcha, Baidu, Incapsula, Soasta, Airbnb,
		DistilCaptcha, Nginx, Varnish,
	}
}

var kindNames = map[Kind]string{
	KindNone:          "none",
	Akamai:            "Akamai",
	Cloudflare:        "Cloudflare",
	AppEngine:         "AppEngine",
	CloudflareCaptcha: "Cloudflare Captcha",
	CloudflareJS:      "Cloudflare JavaScript",
	CloudFront:        "Amazon CloudFront",
	BaiduCaptcha:      "Baidu Captcha",
	Baidu:             "Baidu",
	Incapsula:         "Incapsula",
	Soasta:            "Soasta",
	Airbnb:            "Airbnb",
	DistilCaptcha:     "Distil Captcha",
	Nginx:             "nginx",
	Varnish:           "Varnish",
	Censorship:        "Censorship",
	Legal451:          "HTTP 451",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Explicit reports whether the page explicitly attributes the denial to
// the requester's geographic location. The paper restricts its headline
// analysis to these five classes (§4.1.3): Cloudflare, Amazon
// CloudFront, Google App Engine, Baidu, and Airbnb.
func (k Kind) Explicit() bool {
	switch k {
	case Cloudflare, CloudFront, AppEngine, Baidu, Airbnb, Legal451:
		return true
	}
	return false
}

// Ambiguous reports whether the same page is also served for non-geo
// reasons (bot detection, other errors), making geoblocking
// indistinguishable from abuse defenses without resampling (§5.2.2).
func (k Kind) Ambiguous() bool {
	switch k {
	case Akamai, Incapsula, Soasta, Nginx, Varnish:
		return true
	}
	return false
}

// Challenge reports whether the page is an interactive challenge
// (captcha or JavaScript) rather than a hard denial.
func (k Kind) Challenge() bool {
	switch k {
	case CloudflareCaptcha, CloudflareJS, BaiduCaptcha, DistilCaptcha:
		return true
	}
	return false
}

// Status returns the HTTP status code the page is served with.
func (k Kind) Status() int {
	switch k {
	case CloudflareJS:
		return 503
	case Censorship:
		return 403
	case Legal451:
		return 451 // RFC 7725
	case KindNone:
		return 200
	default:
		return 403
	}
}

// Vars carries the request-specific fields substituted into a template.
type Vars struct {
	Domain      string // blocked site, e.g. "example.com"
	Path        string // requested path, default "/"
	ClientIP    string // requester's address as the edge saw it
	CountryName string // geolocated country, e.g. "Iran"
	RayID       string // Cloudflare ray / Akamai reference / request ID
	Nonce       string // short random token for challenge forms
}

func (v Vars) path() string {
	if v.Path == "" {
		return "/"
	}
	return v.Path
}

// Render produces the HTML body for kind with vars substituted, in one
// allocation (none for the nginx page, which has no fields).
func Render(k Kind, v Vars) string {
	page, args, n := blockPage(k, v)
	if n == 0 {
		return page
	}
	return fill(page, args[:n]...)
}

// Len is len(Render(k, v)), worked out from the template without
// rendering the page.
func Len(k Kind, v Vars) int {
	page, args, n := blockPage(k, v)
	return fillLen(page, args[:n]...)
}

// blockPage returns block page k's template and the first n of args,
// the values of its %s verbs in order.
func blockPage(k Kind, v Vars) (page string, args [5]string, n int) {
	switch k {
	case Akamai:
		return akamaiPage, [5]string{v.Domain, v.path(), v.RayID}, 3
	case Cloudflare:
		return cloudflarePage, [5]string{v.Domain, v.Domain, v.CountryName, v.RayID, v.ClientIP}, 5
	case AppEngine:
		return appEnginePage, [5]string{v.CountryName, v.Domain, v.path()}, 3
	case CloudflareCaptcha:
		return cloudflareCaptchaPage, [5]string{v.Domain, v.RayID, v.Nonce, v.RayID, v.ClientIP}, 5
	case CloudflareJS:
		return cloudflareJSPage, [5]string{v.Domain, v.Nonce, v.Nonce, v.Nonce, v.RayID}, 5
	case CloudFront:
		return cloudFrontPage, [5]string{v.RayID}, 1
	case BaiduCaptcha:
		return baiduCaptchaPage, [5]string{v.Domain, v.Nonce, v.RayID, v.RayID, v.ClientIP}, 5
	case Baidu:
		return baiduPage, [5]string{v.Domain, v.Domain, v.CountryName, v.RayID, v.ClientIP}, 5
	case Incapsula:
		return incapsulaPage, [5]string{v.Nonce, v.RayID, v.RayID}, 3
	case Soasta:
		return soastaPage, [5]string{v.Domain, v.path(), v.RayID}, 3
	case Airbnb:
		return airbnbPage, [5]string{v.RayID, v.ClientIP}, 2
	case DistilCaptcha:
		return distilPage, [5]string{v.Domain, v.Domain, v.Nonce, v.Nonce, v.RayID}, 5
	case Nginx:
		return nginxPage, args, 0
	case Varnish:
		return varnishPage, [5]string{v.RayID}, 1
	case Censorship:
		return censorshipPage, [5]string{v.Nonce}, 1
	case Legal451:
		return legal451Page, [5]string{v.Domain, v.CountryName, v.RayID}, 3
	}
	panic(fmt.Sprintf("blockpage: Render of %v", k))
}

// fill returns what fmt's Sprintf(format, args...) does for the formats
// this package holds, whose only verbs are %s and %%: it sizes the
// result, then writes it in one allocation.
func fill(format string, args ...string) string {
	var b strings.Builder
	b.Grow(fillLen(format, args...))
	writeFill(&b, format, args...)
	return b.String()
}

// fillLen is len(fill(format, args...)).
func fillLen(format string, args ...string) int {
	n := len(format) - strings.Count(format, "%%")
	for _, a := range args {
		n += len(a) - len("%s")
	}
	return n
}

// writeFill writes fill(format, args...) to b.
func writeFill(b *strings.Builder, format string, args ...string) {
	for {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			b.WriteString(format)
			return
		}
		b.WriteString(format[:i])
		switch format[i+1] {
		case 's':
			b.WriteString(args[0])
			args = args[1:]
		case '%':
			b.WriteByte('%')
		default:
			panic("blockpage: verb " + format[i:i+2] + " in a page template")
		}
		format = format[i+2:]
	}
}

// AppendHex appends v in lower-case hexadecimal, zero-padded to at
// least width digits: fmt's %0<width>x, for the ray IDs, nonces and
// tokens the pages carry.
func AppendHex(dst []byte, v uint64, width int) []byte {
	for n := max((bits.Len64(v)+3)/4, 1); n < width; n++ {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, v, 16)
}

// The templates, one per kind. Their only verbs are %s and %%, which
// fill substitutes.

// Akamai serves the same terse page for geo rules, bot detection
// and other edge denials — the ambiguity at the heart of §3.1.
const akamaiPage = `<HTML><HEAD>
<TITLE>Access Denied</TITLE>
</HEAD><BODY>
<H1>Access Denied</H1>

You don't have permission to access "http&#58;&#47;&#47;%s%s" on this server.<P>
Reference&#32;&#35;18&#46;%s
</BODY>
</HTML>
`

const cloudflarePage = `<!DOCTYPE html>
<html lang="en-US">
<head>
<title>Access denied | %s used Cloudflare to restrict access</title>
<meta charset="UTF-8" />
<meta name="robots" content="noindex, nofollow" />
<link rel="stylesheet" id="cf_styles-css" href="/cdn-cgi/styles/cf.errors.css" type="text/css" />
</head>
<body>
<div id="cf-wrapper">
  <div id="cf-error-details" class="cf-error-details-wrapper">
    <div class="cf-wrapper cf-header cf-error-overview">
      <h1><span class="cf-error-type" data-translate="error">Error</span>
      <span class="cf-error-code">1009</span></h1>
      <h2 class="cf-subheadline" data-translate="error_desc">Access denied</h2>
    </div>
    <div class="cf-section cf-wrapper">
      <div class="cf-columns two">
        <div class="cf-column">
          <h2 data-translate="what_happened">What happened?</h2>
          <p>The owner of this website (%s) has banned the country or region your IP address is in (%s) from accessing this website.</p>
        </div>
      </div>
    </div>
    <div class="cf-error-footer cf-wrapper">
      <p>
        <span class="cf-footer-item">Cloudflare Ray ID: <strong>%s</strong></span>
        <span class="cf-footer-separator">&bull;</span>
        <span class="cf-footer-item">Your IP: %s</span>
        <span class="cf-footer-separator">&bull;</span>
        <span class="cf-footer-item"><span>Performance &amp; security by</span> Cloudflare</span>
      </p>
    </div>
  </div>
</div>
</body>
</html>
`

const appEnginePage = `<!DOCTYPE html>
<html lang=en>
<meta charset=utf-8>
<title>Error 403 (Forbidden)!!1</title>
<style>*{margin:0;padding:0}html,code{font:15px/22px arial,sans-serif}</style>
<a href=//www.google.com/><span id=logo aria-label=Google></span></a>
<p><b>403.</b> <ins>That's an error.</ins>
<p>We're sorry, but this service is not available in your country.
App Engine applications cannot be accessed from the country or region
your request originated from (%s). <ins>That's all we know.</ins>
<p>Requested URL: http://%s%s
`

const cloudflareCaptchaPage = `<!DOCTYPE html>
<html lang="en-US">
<head>
<title>Attention Required! | Cloudflare</title>
<meta charset="UTF-8" />
<meta name="robots" content="noindex, nofollow" />
<link rel="stylesheet" id="cf_styles-css" href="/cdn-cgi/styles/cf.errors.css" type="text/css" />
</head>
<body>
<div id="cf-wrapper">
  <div class="cf-alert cf-alert-error cf-cookie-error" id="cookie-alert" data-translate="enable_cookies">Please enable cookies.</div>
  <div id="cf-error-details" class="cf-error-details-wrapper">
    <div class="cf-wrapper cf-header cf-error-overview">
      <h1 data-translate="challenge_headline">One more step</h1>
      <h2 class="cf-subheadline"><span data-translate="complete_sec_check">Please complete the security check to access</span> %s</h2>
    </div>
    <div class="cf-section cf-highlight cf-captcha-container">
      <div class="cf-wrapper">
        <form class="challenge-form" id="challenge-form" action="/cdn-cgi/l/chk_captcha" method="get">
          <script type="text/javascript" src="/cdn-cgi/scripts/cf.challenge.js" data-type="normal" data-ray="%s" async defer></script>
          <noscript id="cf-captcha-bookmark" class="cf-captcha-info">
            <div><input type="hidden" name="id" value="%s"></div>
            <div class="g-recaptcha"></div>
          </noscript>
        </form>
      </div>
    </div>
    <div class="cf-section cf-wrapper">
      <div class="cf-columns two">
        <div class="cf-column">
          <h2 data-translate="why_captcha_headline">Why do I have to complete a CAPTCHA?</h2>
          <p data-translate="why_captcha_detail">Completing the CAPTCHA proves you are a human and gives you temporary access to the web property.</p>
        </div>
        <div class="cf-column">
          <h2 data-translate="resolve_captcha_headline">What can I do to prevent this in the future?</h2>
          <p data-translate="resolve_captcha_antivirus">If you are on a personal connection, like at home, you can run an anti-virus scan on your device to make sure it is not infected with malware.</p>
          <p data-translate="resolve_captcha_network">If you are at an office or shared network, you can ask the network administrator to run a scan across the network looking for misconfigured or infected devices.</p>
        </div>
      </div>
    </div>
    <div class="cf-error-footer cf-wrapper">
      <p>
        <span class="cf-footer-item">Cloudflare Ray ID: <strong>%s</strong></span>
        <span class="cf-footer-separator">&bull;</span>
        <span class="cf-footer-item">Your IP: %s</span>
        <span class="cf-footer-separator">&bull;</span>
        <span class="cf-footer-item"><span>Performance &amp; security by</span> Cloudflare</span>
      </p>
    </div>
  </div>
</div>
</body>
</html>
`

const cloudflareJSPage = `<!DOCTYPE HTML>
<html lang="en-US">
<head>
<meta charset="UTF-8" />
<meta http-equiv="refresh" content="8" />
<title>Just a moment...</title>
<style type="text/css">body{background-color:#ffffff;font-family:Helvetica,Arial,sans-serif}</style>
</head>
<body>
<table width="100%%" height="100%%" cellpadding="20">
<tr><td align="center" valign="middle">
  <div class="cf-browser-verification cf-im-under-attack">
    <noscript><h1 data-translate="turn_on_js" style="color:#bd2426;">Please turn JavaScript on and reload the page.</h1></noscript>
    <div id="cf-content" style="display:none">
      <h1><span data-translate="checking_browser">Checking your browser before accessing</span> %s.</h1>
      <p data-translate="process_is_automatic">This process is automatic. Your browser will redirect to your requested content shortly.</p>
      <p data-translate="allow_5_secs">Please allow up to 5 seconds&hellip;</p>
    </div>
    <form id="challenge-form" action="/cdn-cgi/l/chk_jschl" method="get">
      <input type="hidden" name="jschl_vc" value="%s"/>
      <input type="hidden" name="pass" value="%s"/>
      <input type="hidden" id="jschl-answer" name="jschl_answer"/>
    </form>
    <script type="text/javascript">
      (function(){var a=function(){try{return !!window.addEventListener}catch(e){return !1}};
      var t,r,a,f,kJwqyDRp={"%s":+(+!![]+[])};</script>
  </div>
  <div class="attribution">DDoS protection by Cloudflare<br/>Ray ID: %s</div>
</td></tr>
</table>
</body>
</html>
`

const cloudFrontPage = `<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN" "http://www.w3.org/TR/html4/loose.dtd">
<HTML><HEAD><META HTTP-EQUIV="Content-Type" CONTENT="text/html; charset=iso-8859-1">
<TITLE>ERROR: The request could not be satisfied</TITLE>
</HEAD><BODY>
<H1>403 ERROR</H1>
<H2>The request could not be satisfied.</H2>
<HR noshade size="1px">
The Amazon CloudFront distribution is configured to block access from your country.
We can't connect to the server for this app or website at this time. There might be
too much traffic or a configuration error. Try again later, or contact the app or
website owner.
<BR clear="all">
If you provide content to customers through CloudFront, you can find steps to
troubleshoot and help prevent this error by reviewing the CloudFront documentation.
<BR clear="all">
<HR noshade size="1px">
<PRE>
Generated by cloudfront (CloudFront)
Request ID: %s
</PRE>
<ADDRESS>
</ADDRESS>
</BODY></HTML>
`

// Baidu Yunjiasu's block page is nearly identical to Cloudflare's in
// content (the paper notes this, §4.2.2).
const baiduPage = `<!DOCTYPE html>
<html lang="zh-CN">
<head>
<title>Access denied | %s used Yunjiasu to restrict access</title>
<meta charset="UTF-8" />
<meta name="robots" content="noindex, nofollow" />
<link rel="stylesheet" href="/cdn-cgi/styles/yunjiasu.errors.css" type="text/css" />
</head>
<body>
<div id="yjs-wrapper">
  <div id="yjs-error-details">
    <div class="yjs-header">
      <h1><span class="yjs-error-type">Error</span> <span class="yjs-error-code">1009</span></h1>
      <h2 class="yjs-subheadline">Access denied</h2>
    </div>
    <div class="yjs-section">
      <p>The owner of this website (%s) has banned the country or region your IP address is in (%s) from accessing this website.</p>
    </div>
    <div class="yjs-error-footer">
      <p><span>Baidu Yunjiasu Ray ID: <strong>%s</strong></span> &bull; <span>Your IP: %s</span> &bull; <span>Security by Baidu Yunjiasu</span></p>
    </div>
  </div>
</div>
</body>
</html>
`

const baiduCaptchaPage = `<!DOCTYPE html>
<html lang="zh-CN">
<head>
<title>安全验证 | Baidu Yunjiasu</title>
<meta charset="UTF-8" />
<meta name="robots" content="noindex, nofollow" />
</head>
<body>
<div id="yjs-captcha">
  <h1>One more step: please complete the security verification to access %s</h1>
  <form class="challenge-form" action="/cdn-cgi/l/chk_captcha" method="get">
    <input type="hidden" name="id" value="%s">
    <div class="yjs-recaptcha" data-ray="%s"></div>
    <p>请完成安全验证后继续访问。 Please complete the verification below to continue.</p>
  </form>
  <div class="yjs-footer">Baidu Yunjiasu Ray ID: %s &bull; Your IP: %s</div>
</div>
</body>
</html>
`

// Incapsula serves a small iframe wrapper naming an internal
// resource; like Akamai the identical page covers many deny reasons.
const incapsulaPage = `<html style="height:100%%"><head><META NAME="ROBOTS" CONTENT="NOINDEX, NOFOLLOW"><meta name="format-detection" content="telephone=no"><meta name="viewport" content="initial-scale=1.0"><meta http-equiv="X-UA-Compatible" content="IE=edge,chrome=1"></head>
<body style="margin:0px;height:100%%"><iframe src="/_Incapsula_Resource?CWUDNSAI=9&xinfo=%s&incident_id=%s&edet=12&cinfo=04000000" frameborder=0 width="100%%" height="100%%" marginheight="0px" marginwidth="0px">Request unsuccessful. Incapsula incident ID: %s</iframe></body></html>
`

const soastaPage = `<!DOCTYPE html>
<html>
<head><title>Access Denied</title></head>
<body>
<h1>Access Denied</h1>
<p>Your request to %s%s was denied by the site's security policy.</p>
<p>If you believe this is an error, contact the site operator and provide
the incident identifier below.</p>
<p>Incident ID: SOASTA-%s</p>
<p><small>Protected by SOASTA mPulse edge services.</small></p>
</body>
</html>
`

const airbnbPage = `<!DOCTYPE html>
<html lang="en">
<head>
<title>Airbnb: Not available in your region</title>
<meta charset="utf-8">
</head>
<body>
<div class="container">
  <h1>Sorry!</h1>
  <p>Airbnb is not available in your region.</p>
  <p>Due to trade and export restrictions, Airbnb does not serve its
  website to users located in Crimea, Iran, Syria, and North Korea.</p>
  <p>We apologize for the inconvenience. If you believe you are seeing
  this message in error, please contact us and reference request
  %s from %s.</p>
</div>
</body>
</html>
`

const distilPage = `<!DOCTYPE html>
<html lang="en">
<head>
<title>Pardon Our Interruption</title>
<meta charset="utf-8">
<link rel="stylesheet" type="text/css" href="/distil_files/interstitial.css">
</head>
<body>
<div class="interstitial">
  <h1>Pardon Our Interruption...</h1>
  <p>As you were browsing <strong>%s</strong> something about your browser
  made us think you were a bot. There are a few reasons this might happen:</p>
  <ul>
    <li>You're a power user moving through this website with super-human speed.</li>
    <li>You've disabled JavaScript in your web browser.</li>
    <li>A third-party browser plugin, such as Ghostery or NoScript, is preventing JavaScript from running.</li>
  </ul>
  <p>After completing the CAPTCHA below, you will immediately regain access to %s.</p>
  <form method="POST" action="/distil_r_captcha.html">
    <input type="hidden" name="P" value="%s">
    <div class="g-recaptcha" data-sitekey="%s"></div>
  </form>
  <p class="ref">Reference ID: #%s</p>
</div>
</body>
</html>
`

const nginxPage = `<html>
<head><title>403 Forbidden</title></head>
<body bgcolor="white">
<center><h1>403 Forbidden</h1></center>
<hr><center>nginx</center>
</body>
</html>
`

const varnishPage = `<?xml version="1.0" encoding="utf-8"?>
<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0 Strict//EN" "http://www.w3.org/TR/xhtml1/DTD/xhtml1-strict.dtd">
<html>
  <head>
    <title>403 Forbidden</title>
  </head>
  <body>
    <h1>Error 403 Forbidden</h1>
    <p>Forbidden</p>
    <h3>Guru Meditation:</h3>
    <p>XID: %s</p>
    <hr>
    <p>Varnish cache server</p>
  </body>
</html>
`

// A generic national filtering page in the style documented for
// state censorship (an iframe to a government portal). Deliberately
// distinct from every CDN page: the pipeline must not confuse the
// two phenomena.
const censorshipPage = `<html><head><meta http-equiv="Content-Type" content="text/html; charset=windows-1256"><title>M%s</title></head><body><iframe src="http://10.10.34.34?type=Invalid Site&policy=MainPolicy" style="width: 100%%; height: 100%%" scrolling="no" marginwidth="0" marginheight="0" frameborder="0" vspace="0" hspace="0"></iframe></body></html>
`

const legal451Page = `<!DOCTYPE html>
<html lang="en">
<head><title>Unavailable For Legal Reasons</title><meta charset="utf-8"></head>
<body>
<h1>451 Unavailable For Legal Reasons</h1>
<p>Access to %s from your region (%s) has been restricted in
compliance with applicable trade regulations and legal obligations.</p>
<p>This block is required by law and is not at the discretion of the
site operator. Reference: %s.</p>
</body>
</html>
`

// Signature returns a substring that uniquely identifies kind among all
// templates; the fingerprint package builds its matchers from these.
func Signature(k Kind) string {
	switch k {
	case Akamai:
		return `You don't have permission to access "http&#58;`
	case Cloudflare:
		return "has banned the country or region your IP address is in"
	case AppEngine:
		return "this service is not available in your country"
	case CloudflareCaptcha:
		return "Please complete the security check to access"
	case CloudflareJS:
		return "Checking your browser before accessing"
	case CloudFront:
		return "The Amazon CloudFront distribution is configured to block access from your country"
	case BaiduCaptcha:
		return "please complete the security verification to access"
	case Baidu:
		return "used Yunjiasu to restrict access"
	case Incapsula:
		return "Incapsula incident ID"
	case Soasta:
		return "Protected by SOASTA mPulse edge services"
	case Airbnb:
		return "Airbnb is not available in your region"
	case DistilCaptcha:
		return "something about your browser\n  made us think you were a bot"
	case Nginx:
		return "<center><h1>403 Forbidden</h1></center>\n<hr><center>nginx</center>"
	case Varnish:
		return "Varnish cache server"
	case Censorship:
		return `10.10.34.34?type=Invalid Site`
	case Legal451:
		return "451 Unavailable For Legal Reasons"
	}
	panic(fmt.Sprintf("blockpage: Signature of %v", k))
}

// DisambiguatingTokens lists extra substrings that, together with
// Signature, lower false positives on short generic pages: all must be
// present for a confident match.
func DisambiguatingTokens(k Kind) []string {
	switch k {
	case Cloudflare:
		return []string{"Cloudflare Ray ID:", "error_desc"}
	case Baidu:
		return []string{"Baidu Yunjiasu Ray ID:"}
	case CloudflareCaptcha:
		return []string{"Cloudflare Ray ID:", "chk_captcha"}
	case CloudflareJS:
		return []string{"jschl_vc", "Just a moment..."}
	case Akamai:
		return []string{"Reference&#32;&#35;18&#46;"}
	case Nginx:
		return []string{"<title>403 Forbidden</title>"}
	default:
		return nil
	}
}

// plain marks the bytes a field scan steps over without a look: ASCII
// other than the whitespace strings.Fields splits on.
var plain = func() (t [256]bool) {
	for c := range utf8.RuneSelf {
		t[c] = strings.IndexByte("\t\n\v\f\r ", byte(c)) < 0
	}
	return t
}()

// AppendNormalized appends s to dst with leading and trailing
// whitespace dropped and every inner whitespace run collapsed to one
// space: the bytes of strings.Join(strings.Fields(s), " "), copied a
// field at a time, with nothing allocated beyond dst's growth.
// Whitespace is exactly Fields': the ASCII bytes plain leaves out,
// unicode.IsSpace above utf8.RuneSelf, and an invalid UTF-8 byte (which
// decodes to utf8.RuneError) is not space. It is the one normalizer of
// signature matching: Tokens normalizes signatures and Match bodies
// through it, for the ground truth (Label, Matches) and the fingerprint
// classifier alike, so signature checks tolerate harmless reformatting.
func AppendNormalized(dst []byte, s string) []byte {
	start := len(dst)
	for i := 0; i < len(s); {
		// The field at i runs to the next whitespace rune, of width w;
		// it is empty when i is itself at one.
		j, w := i, 0
		for j < len(s) {
			c := s[j]
			if plain[c] {
				j++
				continue
			}
			if c < utf8.RuneSelf {
				w = 1
				break
			}
			r, rw := utf8.DecodeRuneInString(s[j:])
			if unicode.IsSpace(r) {
				w = rw
				break
			}
			j += rw
		}
		if j > i {
			if len(dst) > start {
				dst = append(dst, ' ')
			}
			dst = append(dst, s[i:j]...)
		}
		i = j + w
	}
	return dst
}

// Tokens returns kind's Signature followed by its DisambiguatingTokens,
// each normalized: the substrings that must all appear in a normalized
// body for the body to be kind's page.
func Tokens(k Kind) [][]byte {
	toks := [][]byte{AppendNormalized(nil, Signature(k))}
	for _, t := range DisambiguatingTokens(k) {
		toks = append(toks, AppendNormalized(nil, t))
	}
	return toks
}

// stackBody is the normalized-body size Match keeps on its stack: every
// template normalizes to well under it, so matching a block page
// allocates nothing, and a longer body falls back to the heap.
const stackBody = 4 << 10

// Match normalizes body once and returns the index of the first of sigs
// whose tokens (normalized, as Tokens returns them) all appear in it,
// or -1.
func Match(body string, sigs [][][]byte) int {
	var buf [stackBody]byte
	nb := AppendNormalized(buf[:0], body)
next:
	for i, toks := range sigs {
		for _, t := range toks {
			if !bytes.Contains(nb, t) {
				continue next
			}
		}
		return i
	}
	return -1
}

// groundTruth holds Tokens of every class in label order, which is Kind
// order (Kinds, then Censorship and Legal451), built once from the
// constant templates.
var groundTruth = func() [][][]byte {
	var t [][][]byte
	for _, k := range append(Kinds(), Censorship, Legal451) {
		t = append(t, Tokens(k))
	}
	return t
}()

// Label returns the first class, in label order, whose template body is
// an instance of, or KindNone: the ground truth used by tests and by
// the simulated "manual verification" step. The production classifier
// lives in the fingerprint package and is evaluated against this.
func Label(body string) Kind {
	return Kind(Match(body, groundTruth) + 1)
}

// Matches reports whether body is an instance of kind's template:
// Label's single-kind case.
func Matches(k Kind, body string) bool {
	return Match(body, groundTruth[k-1:k]) == 0
}
