// Package reuse re-slices the arrays a workspace kept from one run for
// the next, so a stage that runs every window slide allocates only what
// outgrows them.
package reuse

// Slice returns s with length n when its capacity holds at least c
// elements (c >= n), and a new array of length n and capacity c
// otherwise. Reused elements keep whatever the last run left in them:
// the caller initialises every element it reads before writing it.
func Slice[T any](s []T, n, c int) []T {
	if cap(s) < c {
		return make([]T, n, c)
	}
	return s[:n]
}

// Grow is Slice with a sixteenth of headroom, for a length that creeps
// up from run to run: it does not reallocate every time it grows a
// little.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/16)
	}
	return s[:n]
}
