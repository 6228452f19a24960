package serve

import (
	"net/http"
	"net/url"
	"path"
	"strings"
)

// The handler routes its seven patterns with a fixed table instead of an
// http.ServeMux: a request's path is matched segment by segment against
// the table in code, and an {id} route's handler receives the id as an
// argument. It answers what a ServeMux registered with the same
// patterns answers, byte for byte (FuzzRoute holds it to one):
//
//   - GET routes serve HEAD too; another method on a route's path is
//     405 with Allow: GET, HEAD;
//   - a path no route matches is http.NotFound's 404;
//   - an unclean path (//, /./, /../, a missing leading slash) is a 301
//     to the cleaned path, query kept, whatever the method (but
//     CONNECT, which ServeMux never cleans);
//   - segments match after unescaping, as ServeMux matches the
//     request's escaped path: /api/%73earch is /api/search, and
//     /api/topics/a%2Fb has the id "a/b";
//   - the request target "*" is a 400.
//
// A request whose path is escaped the default way (no RawPath), the
// common case, is matched on r.URL.Path as it is: its segments are
// already unescaped, and EscapedPath is not called.

// idHandler serves a route with an {id} segment; id is the segment
// unescaped.
type idHandler func(w http.ResponseWriter, r *http.Request, id string)

// router is the route table: one handler per route.
type router struct {
	search, stats, trace, metrics http.HandlerFunc
	topic, topicItems, related    idHandler
}

// The routes a path can name.
const (
	noRoute = iota
	routeSearch
	routeStats
	routeTrace
	routeMetrics
	routeTopic
	routeTopicItems
	routeRelated
)

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.RequestURI == "*" {
		if r.ProtoAtLeast(1, 1) {
			w.Header().Set("Connection", "close")
		}
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	// Without a RawPath, the escaped path is the default escaping of
	// Path, which escapes neither '/' nor '.': it is clean if Path is,
	// and its segments unescape to Path's.
	p, escaped := r.URL.Path, r.URL.RawPath != ""
	if escaped {
		p = r.URL.EscapedPath()
	}
	if r.Method != http.MethodConnect && !isClean(p) {
		u := &url.URL{Path: cleanPath(r.URL.EscapedPath()), RawQuery: r.URL.RawQuery}
		http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
		return
	}
	route, id := match(p, escaped)
	switch {
	case route == noRoute:
		http.NotFound(w, r)
		return
	case r.Method != http.MethodGet && r.Method != http.MethodHead:
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	switch route {
	case routeSearch:
		rt.search(w, r)
	case routeStats:
		rt.stats(w, r)
	case routeTrace:
		rt.trace(w, r)
	case routeMetrics:
		rt.metrics(w, r)
	case routeTopic:
		rt.topic(w, r, id)
	case routeTopicItems:
		rt.topicItems(w, r, id)
	case routeRelated:
		rt.related(w, r, id)
	}
}

// match returns the route path names and, for an {id} route, its id.
// unescape says whether p is escaped, so that its segments must be
// unescaped before they are compared.
func match(p string, unescape bool) (route int, id string) {
	seg, rest, ok := nextSegment(p, unescape)
	switch {
	case !ok:
	case seg == "metrics":
		return last(rest, routeMetrics), ""
	case seg == "api":
		if seg, rest, ok = nextSegment(rest, unescape); !ok {
			break
		}
		switch seg {
		case "search":
			return last(rest, routeSearch), ""
		case "stats":
			return last(rest, routeStats), ""
		case "trace":
			return last(rest, routeTrace), ""
		case "topics":
			return idRoute(rest, unescape, routeTopic, "items", routeTopicItems)
		case "categories":
			return idRoute(rest, unescape, noRoute, "related", routeRelated)
		}
	}
	return noRoute, ""
}

// last returns route when its segment was the path's last one, when
// nothing is left of the path.
func last(rest string, route int) int {
	if rest != "" {
		return noRoute
	}
	return route
}

// idRoute matches p, the path after a collection's segment, against
// /{id} (route alone) and /{id}/<leaf> (route leafRoute).
func idRoute(p string, unescape bool, alone int, leaf string, leafRoute int) (int, string) {
	id, rest, ok := nextSegment(p, unescape)
	if !ok || id == "/" { // a wildcard never matches a trailing slash
		return noRoute, ""
	}
	if rest == "" {
		return alone, id
	}
	if seg, rest, _ := nextSegment(rest, unescape); seg == leaf {
		return last(rest, leafRoute), id
	}
	return noRoute, ""
}

// nextSegment splits off p's first segment as ServeMux does: the bytes
// after p's first byte up to the next slash, or "/" for a trailing
// slash. It is unescaped when unescape is set (kept as is when its
// escapes are invalid). ok is false when p is empty.
func nextSegment(p string, unescape bool) (seg, rest string, ok bool) {
	if p == "" {
		return "", "", false
	}
	if p == "/" {
		return "/", "", true
	}
	seg = p[1:]
	if i := strings.IndexByte(seg, '/'); i >= 0 {
		seg, rest = seg[:i], seg[i:]
	}
	if unescape {
		if u, err := url.PathUnescape(seg); err == nil {
			seg = u
		}
	}
	return seg, rest, true
}

// isClean reports whether cleanPath leaves p as it is: p starts with a
// slash and has no empty, "." or ".." segment before its end (a
// trailing slash is kept).
func isClean(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	for i := 0; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		switch seg := p[i+1:]; {
		case seg == "":
		case seg[0] == '/':
			return false
		case seg[0] == '.' && (len(seg) == 1 || seg[1] == '/'):
			return false
		case strings.HasPrefix(seg, "..") && (len(seg) == 2 || seg[2] == '/'):
			return false
		}
	}
	return true
}

// cleanPath is ServeMux's canonical form of a path: rooted, with
// path.Clean's rules, and a trailing slash kept.
func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		np += "/"
	}
	return np
}
