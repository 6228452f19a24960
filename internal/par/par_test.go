package par

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestSplit checks that the ranges cover [0, n) in order, one per
// worker up to n, and that no range but the last ends past the point
// where the running cost first reaches its share.
func TestSplit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	costs := []func(int) int{
		func(int) int { return 1 },
		func(i int) int { return i * i },          // the tail dominates
		func(i int) int { return 1000 / (i + 1) }, // the head dominates
		func(int) int { return 0 },
	}
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 5, 100} {
			for ci, cost := range costs {
				b := Split(nil, n, cost)
				width := len(b) - 1
				if want := max(1, min(procs, n)); width != want || Width(n) != want {
					t.Fatalf("procs %d n %d: %d ranges, Width %d, want %d", procs, n, width, Width(n), want)
				}
				if b[0] != 0 || b[width] != n {
					t.Fatalf("procs %d n %d cost %d: bounds %v do not span [0,%d)", procs, n, ci, b, n)
				}
				total := 0
				for i := range n {
					total += cost(i)
				}
				for w := 1; w < width; w++ {
					if b[w] < b[w-1] {
						t.Fatalf("procs %d n %d cost %d: bounds %v out of order", procs, n, ci, b)
					}
					// Range w-1 ends at the first prefix whose cost reaches
					// w/width of the total: one item fewer falls short.
					sum := 0
					for i := range b[w] {
						sum += cost(i)
					}
					if sum*width < total*w || b[w] > 0 && (sum-cost(b[w]-1))*width >= total*w {
						t.Fatalf("procs %d n %d cost %d: bound %d of %v is not where the running cost reaches %d/%d", procs, n, ci, w, b, w, width)
					}
				}
			}
		}
	}
}

// TestRun checks that every range runs once with its bounds and index,
// that the error returned is the lowest failed range's, and that a
// width-1 run, bounds included, allocates nothing.
func TestRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		b := Split(nil, 50, func(int) int { return 1 })
		seen := make([]int, 50)
		err := Run(b, seen, func(seen []int, w, lo, hi int) error {
			if lo != b[w] || hi != b[w+1] {
				return fmt.Errorf("range %d got [%d,%d)", w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("procs %d: %v", procs, err)
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("procs %d: item %d visited %d times", procs, i, n)
			}
		}
		errs := []error{errors.New("range 0"), errors.New("range 1"), errors.New("range 2")}
		for fail := range min(procs, len(errs)) {
			err := Run(b, fail, func(fail, w, _, _ int) error {
				if w >= fail && w < len(errs) {
					return errs[w]
				}
				return nil
			})
			if err != errs[fail] {
				t.Fatalf("procs %d, ranges %d.. failing: Run returned %v, want %v", procs, fail, err, errs[fail])
			}
		}
	}
	// Run keeps no reference to the bounds, so they can live on the
	// caller's stack.
	runtime.GOMAXPROCS(1)
	if allocs := testing.AllocsPerRun(10, func() {
		var buf [2]int
		_ = Run(Split(buf[:0], 50, func(int) int { return 1 }), 0, func(int, int, int, int) error { return nil })
	}); allocs != 0 {
		t.Errorf("a width-1 Split and Run allocated %.0f objects, want 0", allocs)
	}
}

// TestRunAllocs holds a wider Run to what its doc promises: two objects
// plus one closure per extra range. A goroutine descriptor is allocated
// only when the runtime has no free one, so the least of three averages
// over 100 runs gets half an object of slack; a go statement that passes
// the bounds as arguments allocates two objects per extra range and
// fails at every width.
func TestRunAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		var buf [8]int
		b := Split(buf[:0], 50, func(int) int { return 1 })
		run := func() { _ = Run(b, 0, func(int, int, int, int) error { return nil }) }
		run()
		least := 1e9
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 100 {
				run()
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.Mallocs-before.Mallocs)/100)
		}
		if want := float64(2+procs-1) + 0.5; least > want {
			t.Errorf("GOMAXPROCS=%d: Run allocated %.2f objects, want <= %.1f", procs, least, want)
		}
	}
}
