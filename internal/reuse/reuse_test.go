package reuse

import "testing"

func TestSliceReusesWhatFits(t *testing.T) {
	s := make([]int32, 3, 10)
	if got := Slice(s, 8, 10); &got[0] != &s[0] || len(got) != 8 {
		t.Fatalf("Slice(cap 10, 8, 10) = len %d, reused %v", len(got), &got[0] == &s[0])
	}
	if got := Slice(s, 8, 11); &got[0] == &s[0] || len(got) != 8 || cap(got) != 11 {
		t.Fatalf("Slice(cap 10, 8, 11) = len %d cap %d, want a new array of 8 / 11", len(got), cap(got))
	}
	if got := Grow(s, 10); &got[0] != &s[0] {
		t.Fatal("Grow within the capacity reallocated")
	}
	if got := Grow(s, 32); len(got) != 32 || cap(got) != 34 {
		t.Fatalf("Grow(cap 10, 32) = len %d cap %d, want 32 / 34", len(got), cap(got))
	}
}
