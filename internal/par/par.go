// Package par runs a loop over [0, n) on runtime.GOMAXPROCS(0) workers,
// each over one contiguous range of about equal cost. It decides only
// where the ranges fall and who runs them: a caller whose every output
// slot has one writer, and which folds per-range partials in range
// order, produces the same bytes at every width.
package par

import (
	"runtime"
	"sync"
)

// Width is the number of ranges Split makes of n items: GOMAXPROCS
// clipped to [1, n].
func Width(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n)) }

// Split appends to dst[:0] the bounds of Width(n) contiguous ranges over
// [0, n) and returns them: range w is [b[w], b[w+1]). cost(i) >= 0 is
// item i's share of the work; range w ends where the running cost first
// reaches w/width of the total. At width 1 cost is not called.
func Split(dst []int, n int, cost func(i int) int) []int {
	width := Width(n)
	dst = append(dst[:0], 0)
	if width > 1 {
		total := 0
		for i := range n {
			total += cost(i)
		}
		sum, i := 0, 0
		for w := 1; w < width; w++ {
			for i < n && sum*width < total*w {
				sum += cost(i)
				i++
			}
			dst = append(dst, i)
		}
	}
	return append(dst, n)
}

// Run calls body(arg, w, b[w], b[w+1]) for every range w of the bounds b
// that Split returned: range 0 on the calling goroutine, each other on a
// goroutine of its own. It returns once every call has, with the error
// of the lowest range that failed. State reaches body through arg, and
// Run keeps no reference to b, so a caller may hold the bounds on its
// stack and a body that captures nothing costs no allocation: at width 1
// Run starts no goroutine and allocates nothing, and at any wider width
// it allocates two objects (the errors and the wait group) plus one
// closure per extra range, and the runtime a goroutine descriptor when
// it has no free one.
func Run[T any](b []int, arg T, body func(arg T, w, lo, hi int) error) error {
	width := len(b) - 1
	if width == 1 {
		return body(arg, 0, b[0], b[1])
	}
	errs := make([]error, width)
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		// A go statement with arguments wraps a closure around another
		// closure: capturing the bounds instead costs one object.
		lo, hi := b[w], b[w+1]
		go func() {
			errs[w] = body(arg, w, lo, hi)
			wg.Done()
		}()
	}
	errs[0] = body(arg, 0, b[0], b[1])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
