package sketch

import (
	"math"
	"math/rand"
	"testing"

	"toprr/internal/skyband"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// randPoints builds n points in [0,1]^d from a pinned source.
func randPoints(rng *rand.Rand, n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// randPref draws a valid reduced preference: w >= 0, Σw <= 1.
func randPref(rng *rand.Rand, m int) vec.Vector {
	w := vec.New(m)
	rem := 1.0
	for j := range w {
		w[j] = rng.Float64() * rem / float64(m)
		rem -= w[j]
	}
	return w
}

// build streams pts[lo:hi) into a fresh sketch with the given capacity.
func build(pts []vec.Vector, lo, hi, capacity int) *Sketch {
	s := New(pts[0].Dim(), capacity)
	for i := lo; i < hi; i++ {
		s.Insert(i, pts[i])
	}
	return s
}

// sketchEqual compares two sketches structurally: monitored entries
// (slot and coordinates), threshold, and folded count.
func sketchEqual(a, b *Sketch) bool {
	if a.Len() != b.Len() || a.Folded() != b.Folded() {
		return false
	}
	ae, be := a.Entries(), b.Entries()
	for i := range ae {
		if ae[i].Idx != be[i].Idx || !ae[i].P.Equal(be[i].P, 0) {
			return false
		}
	}
	switch {
	case a.thresh == nil && b.thresh == nil:
		return true
	case a.thresh == nil || b.thresh == nil:
		return false
	default:
		return a.thresh.Equal(b.thresh, 0)
	}
}

func TestInsertEvictInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, d, capacity = 200, 4, 16
	pts := randPoints(rng, n, d)
	s := build(pts, 0, n, capacity)

	if s.Len() != capacity {
		t.Fatalf("Len = %d, want %d", s.Len(), capacity)
	}
	if s.Members() != n {
		t.Fatalf("Members = %d, want %d", s.Members(), n)
	}
	if s.Folded() != n-capacity {
		t.Fatalf("Folded = %d, want %d", s.Folded(), n-capacity)
	}

	// Every dataset member is either monitored with exact coordinates or
	// componentwise dominated by the threshold.
	monitored := make(map[int]vec.Vector, s.Len())
	prev := -1
	for _, e := range s.Entries() {
		if e.Idx <= prev {
			t.Fatalf("entries not in ascending slot order: %d after %d", e.Idx, prev)
		}
		prev = e.Idx
		monitored[e.Idx] = e.P
	}
	for i, p := range pts {
		if mp, ok := monitored[i]; ok {
			if !mp.Equal(p, 0) {
				t.Fatalf("monitored slot %d has wrong coordinates", i)
			}
			continue
		}
		for j, x := range p {
			if x > s.thresh[j] {
				t.Fatalf("folded slot %d exceeds threshold in component %d: %v > %v", i, j, x, s.thresh[j])
			}
		}
	}

	// The monitored survivors are exactly the capacity members with the
	// largest retention keys (coordinate sums), ties kept on lower slots.
	for _, e := range s.Entries() {
		better := 0
		ek := retentionKey(e.P)
		for i, p := range pts {
			k := retentionKey(p)
			if k > ek || (k == ek && i < e.Idx) {
				better++
			}
		}
		if better >= capacity {
			t.Fatalf("slot %d survived with %d stronger members (capacity %d)", e.Idx, better, capacity)
		}
	}
}

func TestBoundSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, d, capacity = 300, 5, 24
	pts := randPoints(rng, n, d)
	s := build(pts, 0, n, capacity)

	monitored := make(map[int]bool, s.Len())
	for _, e := range s.Entries() {
		monitored[e.Idx] = true
	}
	for trial := 0; trial < 50; trial++ {
		w := randPref(rng, d-1)
		u := s.UpperUnmonitored(w)
		for i, p := range pts {
			if monitored[i] {
				continue
			}
			if got := topk.ScorePoint(w, p); got > u+1e-9 {
				t.Fatalf("trial %d: folded slot %d scores %v above bound %v", trial, i, got, u)
			}
		}
	}

	empty := build(pts, 0, capacity, capacity)
	if u := empty.UpperUnmonitored(randPref(rng, d-1)); !math.IsInf(u, -1) {
		t.Fatalf("unfolded sketch bound = %v, want -Inf", u)
	}
}

func TestMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, d, capacity = 240, 4, 16
	pts := randPoints(rng, n, d)
	a := build(pts, 0, 80, capacity)
	b := build(pts, 80, 160, capacity)
	c := build(pts, 160, n, capacity)

	if !sketchEqual(Merge(a, b), Merge(b, a)) {
		t.Fatal("Merge is not commutative")
	}
	left := Merge(Merge(a, b), c)
	right := Merge(a, Merge(b, c))
	if !sketchEqual(left, right) {
		t.Fatal("Merge is not associative")
	}
	if got := MergeAll([]*Sketch{a, nil, b, c}); !sketchEqual(got, left) {
		t.Fatal("MergeAll differs from pairwise merges")
	}
	if left.Members() != n {
		t.Fatalf("merged Members = %d, want %d", left.Members(), n)
	}
}

func TestKthBestAndCountAbove(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, d, capacity = 100, 4, 32
	pts := randPoints(rng, n, d)
	s := build(pts, 0, n, capacity)

	for trial := 0; trial < 20; trial++ {
		w := randPref(rng, d-1)
		scores := make([]float64, 0, s.Len())
		for _, e := range s.Entries() {
			scores = append(scores, topk.ScorePoint(w, e.P))
		}
		for k := 1; k <= len(scores); k += 7 {
			got, ok := s.KthBest(w, k)
			if !ok {
				t.Fatalf("KthBest(%d) declined with %d entries", k, len(scores))
			}
			// Brute-force k-th highest.
			above, equal := 0, 0
			for _, sc := range scores {
				if sc > got {
					above++
				} else if sc == got {
					equal++
				}
			}
			if !(above < k && above+equal >= k) {
				t.Fatalf("KthBest(%d) = %v inconsistent: %d above, %d equal", k, got, above, equal)
			}
		}
		if _, ok := s.KthBest(w, s.Len()+1); ok {
			t.Fatal("KthBest beyond monitored budget must decline")
		}
		t0 := topk.ScorePoint(w, pts[0])
		want := 0
		for _, e := range s.Entries() {
			if topk.ScorePoint(w, e.P) > t0 {
				want++
			}
		}
		if got := s.CountAbove(w, t0); got != want {
			t.Fatalf("CountAbove = %d, want %d", got, want)
		}
	}
}

func TestCertifySkybandSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const d = 4
	// A dominated-heavy dataset: a small elite well above a large mass,
	// so the certificate has room to fire.
	pts := make([]vec.Vector, 0, 400)
	for i := 0; i < 360; i++ {
		p := vec.New(d)
		for j := range p {
			p[j] = rng.Float64() * 0.6
		}
		pts = append(pts, p)
	}
	for i := 0; i < 40; i++ {
		p := vec.New(d)
		for j := range p {
			p[j] = 0.7 + rng.Float64()*0.3
		}
		pts = append(pts, p)
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	s := build(pts, 0, len(pts), DefaultCapacity)
	verts := []vec.Vector{
		{0.2, 0.2, 0.2},
		{0.4, 0.2, 0.2},
		{0.2, 0.4, 0.2},
		{0.2, 0.2, 0.4},
	}
	const k = 5
	cands, ok := s.CertifySkyband(verts, k)
	if !ok {
		t.Fatal("certificate expected to hold on dominated-heavy data")
	}
	sub := make([]vec.Vector, len(pts))
	for _, i := range cands {
		sub[i] = pts[i]
	}
	rd := skyband.NewRDomVerts(verts)
	got := skyband.RSkybandSubset(sub, cands, k, rd)
	want := skyband.RSkyband(pts, k, rd)
	if len(got) != len(want) {
		t.Fatalf("gated r-skyband size %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("gated r-skyband differs at %d: %d != %d", i, got[i], want[i])
		}
	}

	// Uniform data offers no k dominators of the threshold: must decline.
	u := build(randPoints(rng, 400, d), 0, 400, 16)
	if _, ok := u.CertifySkyband(verts, 200); ok {
		t.Fatal("certificate must decline when too few dominators exist")
	}
}

func TestPlaneAdvanceMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const d = 4
	pts := randPoints(rng, 150, d)
	sc1 := topk.NewScorer(pts)
	pl := NewPlane(sc1, 1, 16)

	// Pure-insert advance: the successor sketch must equal a rebuild.
	pts2 := append(append([]vec.Vector(nil), pts...), randPoints(rng, 30, d)...)
	inserted := make([]int, 30)
	for i := range inserted {
		inserted[i] = 150 + i
	}
	sc2 := topk.NewScorer(pts2)
	pl.AdvanceInsert(sc2, inserted)
	fresh := NewPlane(sc2, 1, 16)
	if !sketchEqual(pl.For(sc2), fresh.For(sc2)) {
		t.Fatal("insert advance diverges from rebuild")
	}

	// Stale generations are declined.
	if pl.For(sc1) != nil {
		t.Fatal("plane served a stale generation")
	}

	// Reshape advance rebuilds.
	pts3 := append([]vec.Vector(nil), pts2...)
	pts3[7] = randPoints(rng, 1, d)[0]
	sc3 := topk.NewScorer(pts3)
	pl.Advance(sc3)
	fresh3 := NewPlane(sc3, 1, 16)
	if !sketchEqual(pl.For(sc3), fresh3.For(sc3)) {
		t.Fatal("reshape advance diverges from rebuild")
	}
}

// FuzzSketchMerge drives the merge algebra and the deterministic bounds
// from raw bytes: three disjoint sketches built from fuzzer-chosen
// points must merge commutatively and associatively, and the merged
// bound must dominate every folded member's score under a
// fuzzer-chosen valid preference.
func FuzzSketchMerge(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(3), uint8(4))
	f.Add(int64(7), uint8(90), uint8(2), uint8(1))
	f.Add(int64(42), uint8(255), uint8(5), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dRaw, capRaw uint8) {
		n := 3 + int(nRaw)%120
		d := 2 + int(dRaw)%5
		capacity := 1 + int(capRaw)%24
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, 3*n, d)

		a := build(pts, 0, n, capacity)
		b := build(pts, n, 2*n, capacity)
		c := build(pts, 2*n, 3*n, capacity)

		if !sketchEqual(Merge(a, b), Merge(b, a)) {
			t.Fatal("Merge is not commutative")
		}
		m := Merge(Merge(a, b), c)
		if !sketchEqual(m, Merge(a, Merge(b, c))) {
			t.Fatal("Merge is not associative")
		}
		if m.Members() != 3*n {
			t.Fatalf("merged Members = %d, want %d", m.Members(), 3*n)
		}

		monitored := make(map[int]bool, m.Len())
		for _, e := range m.Entries() {
			monitored[e.Idx] = true
		}
		w := randPref(rng, d-1)
		u := m.UpperUnmonitored(w)
		exactMax := math.Inf(-1)
		for i, p := range pts {
			if monitored[i] {
				continue
			}
			if s := topk.ScorePoint(w, p); s > exactMax {
				exactMax = s
			}
		}
		if exactMax > u+1e-9 {
			t.Fatalf("bound %v below exact unmonitored max %v", u, exactMax)
		}
	})
}
