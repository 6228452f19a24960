package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// routeMethods are the methods FuzzRoute sends: the two a route serves
// and three it refuses.
var routeMethods = [...]string{"GET", "HEAD", "POST", "PUT", "OPTIONS"}

// routeOracle returns the route table, uninstrumented, with handlers
// that write which route ran and the id it received, and an
// http.ServeMux with the same seven patterns around the same handlers,
// the id read by PathValue.
func routeOracle() (*router, *http.ServeMux) {
	rt := &router{}
	mux := http.NewServeMux()
	for route, pattern := range routeLabels {
		if route == unmatched {
			continue
		}
		rt.handlers[route] = func(w http.ResponseWriter, r *http.Request, id string) int {
			w.Header().Set("Content-Type", "text/x-route")
			fmt.Fprintf(w, "%s id=%q %s", pattern, id, r.URL.RawQuery)
			return http.StatusOK
		}
		h := rt.handlers[route]
		mux.HandleFunc("GET "+pattern, func(w http.ResponseWriter, r *http.Request) { h(w, r, r.PathValue("id")) })
	}
	return rt, mux
}

// readRequest parses method and target as a server reads a request
// line, or returns nil when a server would refuse it.
func readRequest(method, target string) *http.Request {
	r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(method + " " + target + " HTTP/1.1\r\nHost: shoal.test\r\n\r\n")))
	if err != nil {
		return nil
	}
	return r
}

// FuzzRoute sends one method and request target to the route table and
// to a ServeMux registered with its seven patterns, and holds the two
// answers equal: status, every header (Allow, Location and Content-Type
// among them) and body, which names the handler that ran and the id it
// received. It also holds the status the table returns, the one it
// counts, to the status it wrote, and the route it counts under to the
// handler that ran: unmatched when the table answered itself.
func FuzzRoute(f *testing.F) {
	for _, target := range []string{
		"/api/search?q=beach+dress&k=5", "/api/stats", "/api/trace", "/metrics",
		"/api/topics/7", "/api/topics/7/items?category=3", "/api/categories/3/related",
		"/api/search/", "/api/topics/", "/api/topics/7/", "/api/topics/7/items/", "/metrics/", "/api", "/api/", "/",
		"//api/search?q=x", "/api//search", "/api/./search", "/api/../api/stats", "/api/topics/7/.", "/api/topics/..",
		"/api/topics//items", "/api/topics/./items", "/api/topics/7/..", "/./", "/..", "/api/search/.?q=%20",
		"/api/%73earch", "/api/topics/%2F/items", "/api/topics/a%2Fb", "/api/topics%2F7", "/%61pi/stats",
		"/api/topics/%2541", "/api/topics/%zz", "/api/topics/%C3%A9", "/api/topics/é/items", "/api/categories/%E2%80%A8/related",
		"/api/topics/-1", "/api/topics/7?x=1&y", "/api/topics/7/items?", "/api/search?", "/api/nope", "/api/topics/7/related",
		"/api/categories/3", "/api/categories/3/items", "*", "http://shoal.test/api/stats", "http://shoal.test", "api/stats",
	} {
		for m := range routeMethods {
			f.Add(uint8(m), target)
		}
	}
	rt, mux := routeOracle()
	f.Fuzz(func(t *testing.T, m uint8, target string) {
		method := routeMethods[int(m)%len(routeMethods)]
		r1, r2 := readRequest(method, target), readRequest(method, target)
		if r1 == nil {
			return
		}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		route := unmatched
		status := rt.serve(got, r1, &route)
		mux.ServeHTTP(want, r2)
		if status != got.Code {
			t.Fatalf("%s %q: route table wrote %d and counts %d", method, target, got.Code, status)
		}
		if ran := strings.HasPrefix(got.Body.String(), routeLabels[route]+" id="); ran != (route != unmatched) {
			t.Fatalf("%s %q: counted under %q, body %q", method, target, routeLabels[route], got.Body.Bytes())
		}
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s %q:\nroute table %d %v %q\n   ServeMux %d %v %q", method, target,
				got.Code, got.Header(), got.Body.Bytes(), want.Code, want.Header(), want.Body.Bytes())
		}
	})
}
