package serve

import (
	"net/http"
	"net/url"
	"path"
	"strings"

	"shoal/internal/obs"
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
//
// The table is also the request's only observer: it knows the route
// before it runs a handler, so it times and counts each request under
// that route by number, with the status the handler returns or the one
// the table wrote itself.

// The routes, numbered as obs.NewHTTPMetrics numbers their instrument
// sets: route 0, unmatched, is every response the table answers itself.
const (
	unmatched = iota
	routeSearch
	routeTopic
	routeTopicItems
	routeRelated
	routeStats
	routeTrace
	routeMetrics
	numRoutes
)

// routeLabels are the routes' route="…" labels in /metrics.
var routeLabels = [numRoutes]string{
	obs.UnmatchedRoute, "/api/search", "/api/topics/{id}", "/api/topics/{id}/items",
	"/api/categories/{id}/related", "/api/stats", "/api/trace", "/metrics",
}

// routeHandler answers one route's request and returns the status it
// wrote. id is the request's {id} segment, unescaped ("" on a route
// without one). It writes its response in one call, at its end, so a
// handler that panics has written nothing and the table can answer 500.
type routeHandler func(w http.ResponseWriter, r *http.Request, id string) int

// router is the route table: one handler per route, and the instrument
// sets it times and counts each request with (nil: uninstrumented).
type router struct {
	handlers [numRoutes]routeHandler
	metrics  *obs.HTTPMetrics
}

// ServeHTTP answers r and observes it under the route it names: the
// route is known before its handler runs, so a panic counts under it.
func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, status := unmatched, 0
	if rt.metrics == nil {
		rt.serve(w, r, &route)
		return
	}
	start := rt.metrics.Begin()
	defer func() { rt.metrics.Finish(recover(), w, r, route, status, start) }()
	status = rt.serve(w, r, &route)
}

// serve answers r and returns the status it wrote. It sets *route to the
// route r names before it runs the route's handler, and leaves it
// unmatched when the table answers itself.
func (rt *router) serve(w http.ResponseWriter, r *http.Request, route *int) int {
	if r.RequestURI == "*" {
		if r.ProtoAtLeast(1, 1) {
			w.Header().Set("Connection", "close")
		}
		w.WriteHeader(http.StatusBadRequest)
		return http.StatusBadRequest
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
		return http.StatusMovedPermanently
	}
	matched, id := match(p, escaped)
	switch {
	case matched == unmatched:
		http.NotFound(w, r)
		return http.StatusNotFound
	case r.Method != http.MethodGet && r.Method != http.MethodHead:
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return http.StatusMethodNotAllowed
	}
	*route = matched
	return rt.handlers[matched](w, r, id)
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
			return idRoute(rest, unescape, unmatched, "related", routeRelated)
		}
	}
	return unmatched, ""
}

// last returns route when its segment was the path's last one, when
// nothing is left of the path.
func last(rest string, route int) int {
	if rest != "" {
		return unmatched
	}
	return route
}

// idRoute matches p, the path after a collection's segment, against
// /{id} (route alone) and /{id}/<leaf> (route leafRoute).
func idRoute(p string, unescape bool, alone int, leaf string, leafRoute int) (int, string) {
	id, rest, ok := nextSegment(p, unescape)
	if !ok || id == "/" { // a wildcard never matches a trailing slash
		return unmatched, ""
	}
	if rest == "" {
		return alone, id
	}
	if seg, rest, _ := nextSegment(rest, unescape); seg == leaf {
		return last(rest, leafRoute), id
	}
	return unmatched, ""
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
