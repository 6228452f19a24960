package dendrogram

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sample builds: leaves 0..4; merges (0,1)->5 @0.9, (2,3)->6 @0.8,
// (5,6)->7 @0.4. Leaf 4 stays isolated.
func sample() *Dendrogram {
	return &Dendrogram{
		Leaves: 5,
		Merges: []Merge{
			{A: 0, B: 1, New: 5, Sim: 0.9, Round: 0},
			{A: 2, B: 3, New: 6, Sim: 0.8, Round: 0},
			{A: 5, B: 6, New: 7, Sim: 0.4, Round: 1},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	empty := &Dendrogram{Leaves: 3}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty dendrogram invalid: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		d    *Dendrogram
	}{
		{"negative leaves", &Dendrogram{Leaves: -1}},
		{"wrong new id", &Dendrogram{Leaves: 2, Merges: []Merge{{A: 0, B: 1, New: 5, Sim: 1}}}},
		{"self merge", &Dendrogram{Leaves: 2, Merges: []Merge{{A: 0, B: 0, New: 2, Sim: 1}}}},
		{"future cluster", &Dendrogram{Leaves: 2, Merges: []Merge{{A: 0, B: 3, New: 2, Sim: 1}}}},
		{"negative round", &Dendrogram{Leaves: 2, Merges: []Merge{{A: 0, B: 1, New: 2, Sim: 1, Round: -1}}}},
		{"reuse", &Dendrogram{Leaves: 3, Merges: []Merge{
			{A: 0, B: 1, New: 3, Sim: 1},
			{A: 0, B: 2, New: 4, Sim: 1},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.d.Validate(); err == nil {
				t.Fatalf("Validate() = nil, want error")
			}
		})
	}
}

func TestSizeAndMembers(t *testing.T) {
	d := sample()
	if d.Size(0) != 1 {
		t.Fatalf("Size(leaf) = %d, want 1", d.Size(0))
	}
	if d.Size(5) != 2 || d.Size(7) != 4 {
		t.Fatalf("Size(5)=%d Size(7)=%d, want 2,4", d.Size(5), d.Size(7))
	}
	if got := d.Members(7); !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
		t.Fatalf("Members(7) = %v, want [0 1 2 3]", got)
	}
	if got := d.Members(4); !reflect.DeepEqual(got, []int32{4}) {
		t.Fatalf("Members(4) = %v, want [4]", got)
	}
}

func TestCutAt(t *testing.T) {
	d := sample()
	// threshold 0.85: only the 0.9 merge applies -> {0,1},{2},{3},{4}.
	got := d.CutAt(0.85)
	want := []int32{0, 0, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CutAt(0.85) = %v, want %v", got, want)
	}
	// threshold 0.5: merges 0.9 and 0.8 -> {0,1},{2,3},{4}.
	got = d.CutAt(0.5)
	want = []int32{0, 0, 2, 2, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CutAt(0.5) = %v, want %v", got, want)
	}
	// threshold 0.1: all merges -> {0,1,2,3},{4}.
	got = d.CutAt(0.1)
	want = []int32{0, 0, 0, 0, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CutAt(0.1) = %v, want %v", got, want)
	}
}

func TestRoots(t *testing.T) {
	d := sample()
	if got := d.Roots(); !reflect.DeepEqual(got, []int32{4, 7}) {
		t.Fatalf("Roots() = %v, want [4 7]", got)
	}
}

func TestChildrenAndSim(t *testing.T) {
	d := sample()
	if d.Children(0) != nil {
		t.Fatal("leaf has children")
	}
	if got := d.Children(7); !reflect.DeepEqual(got, []int32{5, 6}) {
		t.Fatalf("Children(7) = %v, want [5 6]", got)
	}
	if d.Sim(0) != 1 {
		t.Fatalf("Sim(leaf) = %f, want 1", d.Sim(0))
	}
	if d.Sim(6) != 0.8 {
		t.Fatalf("Sim(6) = %f, want 0.8", d.Sim(6))
	}
}

// cutAtReference is the map-keyed labeling CutAt replaced: union the
// merges at or above threshold, then label each leaf with the smallest
// leaf sharing its root, found by a full scan per root.
func cutAtReference(d *Dendrogram, threshold float64) []int32 {
	uf := newUnionFind(d.Leaves + len(d.Merges))
	for _, m := range d.Merges {
		if m.Sim >= threshold {
			uf.unionInto(m.A, m.New)
			uf.unionInto(m.B, m.New)
		}
	}
	minLeaf := make(map[int32]int32)
	for l := int32(0); l < int32(d.Leaves); l++ {
		r := uf.find(l)
		if cur, ok := minLeaf[r]; !ok || l < cur {
			minLeaf[r] = l
		}
	}
	out := make([]int32, d.Leaves)
	for l := range out {
		out[l] = minLeaf[uf.find(int32(l))]
	}
	return out
}

// randomDendrogram merges random pairs of the live clusters of n leaves
// at sims drawn from a few repeated values, so thresholds hit ties.
func randomDendrogram(rng *rand.Rand, n int) *Dendrogram {
	d := &Dendrogram{Leaves: n}
	live := make([]int32, n)
	for i := range live {
		live[i] = int32(i)
	}
	merges := rng.Intn(n)
	for i := 0; i < merges; i++ {
		a := rng.Intn(len(live))
		live[a], live[len(live)-1] = live[len(live)-1], live[a]
		b := rng.Intn(len(live) - 1)
		id := int32(n + i)
		d.Merges = append(d.Merges, Merge{A: live[len(live)-1], B: live[b], New: id, Sim: float64(rng.Intn(8)) / 8, Round: int32(i)})
		live[b] = id
		live = live[:len(live)-1]
	}
	return d
}

func TestCutAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		d := randomDendrogram(rng, 1+rng.Intn(60))
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, th := range []float64{-1, 0, 0.125, 0.3, 0.5, 0.875, 1, 2} {
			if got, want := d.CutAt(th), cutAtReference(d, th); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d CutAt(%v) = %v, reference %v", trial, th, got, want)
			}
		}
	}
	if got := (&Dendrogram{}).CutAt(0.5); len(got) != 0 {
		t.Fatalf("CutAt on an empty dendrogram = %v", got)
	}
}

// Property: for random valid dendrograms, CutAt partitions are
// well-defined (labels are leaf ids, label classes are unions of merges)
// and coarser thresholds only ever merge classes, never split them.
func TestCutAtMonotoneProperty(t *testing.T) {
	f := func(simsRaw []uint8) bool {
		// Build a random valid dendrogram over 8 leaves by merging a
		// queue of available clusters left-to-right.
		d := &Dendrogram{Leaves: 8}
		avail := []int32{0, 1, 2, 3, 4, 5, 6, 7}
		next := int32(8)
		for i := 0; len(avail) >= 2 && i < len(simsRaw); i++ {
			a, b := avail[0], avail[1]
			avail = avail[2:]
			sim := float64(simsRaw[i]) / 255
			d.Merges = append(d.Merges, Merge{A: a, B: b, New: next, Sim: sim, Round: int32(i)})
			avail = append(avail, next)
			next++
		}
		if err := d.Validate(); err != nil {
			return false
		}
		fine := d.CutAt(0.7)
		coarse := d.CutAt(0.2)
		// Same fine label => same coarse label.
		for i := 0; i < d.Leaves; i++ {
			for j := i + 1; j < d.Leaves; j++ {
				if fine[i] == fine[j] && coarse[i] != coarse[j] {
					return false
				}
			}
		}
		// Labels are representatives: label of leaf i is a leaf with the
		// same label.
		for i := 0; i < d.Leaves; i++ {
			l := fine[i]
			if l < 0 || int(l) >= d.Leaves || fine[l] != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
