package place

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// Greedy is the paper's Algorithm 1: normalize the rows of Ψ_K, build the
// row-correlation Gram matrix G = UU* − I, and repeatedly delete the row
// involved in the strongest remaining correlation until M rows survive,
// guarding against rank collapse of the sensing matrix.
//
// Three implementation notes, all recorded in DESIGN.md:
//
//   - Correlation magnitude. We eliminate by |G[i,j]| rather than the signed
//     maximum: a row and its negation span the same direction and are just as
//     redundant. Set SignedMax for the paper-literal variant.
//   - Rank-check schedule. Checking rank(Ψ̃) after every removal is O(N²K²)
//     overall; rank can only become critical once few rows remain, so we
//     start checking when the survivor count drops below RankCheckBelow
//     (default 4K). The small-instance ablation test asserts this produces
//     the same result as checking every step.
//   - Victim selection. The globally strongest correlation is found by a
//     lazily-invalidated max-heap over the per-row maxima — O(log R) per
//     removal instead of the O(R) linear rescan — and the post-removal
//     repair walks a reverse index of argmax pointers instead of scanning
//     all rows. The algorithm as a whole stays Θ(R²) — the Gram build is
//     O(R²K) and the aggregate tie-break scans the victim pair's rows — but
//     the heap+index remove two of the three per-removal linear scans. At
//     the paper's scale the heap won 15 of 16 timed pairs against the
//     rescan (DESIGN.md); the rescan survives only as the test reference,
//     which must produce identical allocations.
type Greedy struct {
	// SignedMax selects the paper-literal signed max-element rule.
	SignedMax bool
	// RankCheckBelow starts rank safeguarding when this many rows remain;
	// 0 means the default max(4K, M+K).
	RankCheckBelow int
	// CheckEveryStep forces a rank check after every removal (ablation).
	CheckEveryStep bool
}

// rowMaxHeap is a binary max-heap of (correlation, row) pairs ordered by
// value descending, row index ascending on ties — the same victim order the
// ascending linear rescan produces, which is what makes heap == rescan exact
// (see the ablation test). Entries are never updated in place: a row whose
// maximum changes gets a fresh entry pushed, and stale entries are skipped
// at pop time by checking them against the live rowMax slice.
type rowMaxHeap struct {
	val []float32
	row []int32
}

func (h *rowMaxHeap) less(a, b int) bool {
	if h.val[a] != h.val[b] {
		return h.val[a] > h.val[b]
	}
	return h.row[a] < h.row[b]
}

func (h *rowMaxHeap) swap(a, b int) {
	h.val[a], h.val[b] = h.val[b], h.val[a]
	h.row[a], h.row[b] = h.row[b], h.row[a]
}

func (h *rowMaxHeap) push(v float32, r int) {
	h.val = append(h.val, v)
	h.row = append(h.row, int32(r))
	for i := len(h.val) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// pop removes and returns the top entry; ok is false on an empty heap.
func (h *rowMaxHeap) pop() (v float32, r int, ok bool) {
	if len(h.val) == 0 {
		return 0, 0, false
	}
	v, r = h.val[0], int(h.row[0])
	last := len(h.val) - 1
	h.swap(0, last)
	h.val, h.row = h.val[:last], h.row[:last]
	for i := 0; ; {
		l, rr := 2*i+1, 2*i+2
		best := i
		if l < last && h.less(l, best) {
			best = l
		}
		if rr < last && h.less(rr, best) {
			best = rr
		}
		if best == i {
			break
		}
		h.swap(i, best)
		i = best
	}
	return v, r, true
}

// Name implements Allocator.
func (g *Greedy) Name() string { return "greedy" }

// Allocate implements Allocator. When the rank safeguard trips, the set
// restored from the previous iteration is returned even if it still holds
// more than M rows — Algorithm 1's "restore and break" semantics.
func (g *Greedy) Allocate(in Input) ([]int, error) {
	if in.Psi == nil {
		return nil, fmt.Errorf("%w: greedy needs Psi", ErrBadInput)
	}
	n, k := in.Psi.Dims()
	cells, err := allowedCells(n, in.Mask)
	if err != nil {
		return nil, err
	}
	// Rows with zero norm carry no information and can never host a useful
	// sensor; drop them from the candidate pool up front.
	var rows []int
	for _, c := range cells {
		if mat.Norm2(in.Psi.Row(c)) > 0 {
			rows = append(rows, c)
		}
	}
	if err := validateCount(in.M, len(rows)); err != nil {
		return nil, err
	}
	if in.M < k {
		return nil, fmt.Errorf("%w: M=%d < K=%d cannot keep Ψ̃ full rank", ErrBadInput, in.M, k)
	}

	// U: normalized candidate rows.
	u := mat.New(len(rows), k)
	for r, c := range rows {
		row := mat.CopyVec(in.Psi.Row(c))
		mat.Normalize(row)
		u.SetRow(r, row)
	}

	// G stored in float32 to halve the footprint (N=3360 → 45 MB); the
	// comparisons only need ~7 digits.
	nr := len(rows)
	gm, rowMax, rowArg := correlations(u, g.SignedMax)

	// active flags the surviving rows and live lists them ascending. Every
	// scan below walks live, which visits the active rows in the order a
	// full ascending scan over the flags would — so each max, argmax and
	// sum is the full scan's — while skipping the removed ones for free.
	active := make([]bool, nr)
	live := make([]int32, nr)
	for i := range active {
		active[i] = true
		live[i] = int32(i)
	}

	// Per-row max correlation and argmax over active peers, maintained
	// incrementally: recomputed only for rows whose argmax was removed.
	// argRev is the reverse index — argRev[j] holds every row that ever set
	// rowArg = j since argRev[j] was last consumed — so the repair step
	// touches only candidate rows instead of scanning all R. Entries go
	// stale when a later recompute moves the row's argmax elsewhere; the
	// consumer filters on the live rowArg.
	argRev := make([][]int32, nr)
	recompute := func(i int) {
		best := float32(math.Inf(-1))
		arg := -1
		row := gm[i*nr : (i+1)*nr]
		for _, j32 := range live {
			j := int(j32)
			if j == i {
				continue
			}
			if v := row[j]; v > best {
				best = v
				arg = j
			}
		}
		rowMax[i] = best
		rowArg[i] = arg
		if arg >= 0 {
			argRev[arg] = append(argRev[arg], int32(i))
		}
	}
	for i, arg := range rowArg {
		if arg >= 0 {
			argRev[arg] = append(argRev[arg], int32(i))
		}
	}

	// Heap over the row maxima. Invariant: every active row has an entry
	// carrying its current rowMax; entries invalidated by removals or
	// recomputes are skipped at pop time.
	heap := &rowMaxHeap{val: make([]float32, 0, nr), row: make([]int32, 0, nr)}
	for i := 0; i < nr; i++ {
		heap.push(rowMax[i], i)
	}

	checkBelow := g.RankCheckBelow
	if checkBelow <= 0 {
		checkBelow = 4 * k
		if in.M+k > checkBelow {
			checkBelow = in.M + k
		}
	}

	survivors := func() []int {
		out := make([]int, 0, len(live))
		for r, on := range active {
			if on {
				out = append(out, rows[r])
			}
		}
		sort.Ints(out)
		return out
	}

	for len(live) > in.M {
		// Row participating in the globally strongest correlation.
		victim := -1
		for {
			v, r, ok := heap.pop()
			if !ok {
				break
			}
			if active[r] && v == rowMax[r] {
				victim = r
				break
			}
		}
		if victim < 0 {
			break // single row left or no correlations
		}
		// The max pair is (victim, rowArg[victim]); both see the same value.
		// Remove the endpoint with the larger aggregate correlation — the
		// more redundant of the two.
		if j := rowArg[victim]; j >= 0 && rowMax[j] == rowMax[victim] {
			if aj, av := g.aggregates(gm, nr, live, j, victim); aj > av {
				victim = j
			}
		}

		active[victim] = false
		at := sort.Search(len(live), func(p int) bool { return int(live[p]) >= victim })
		live = append(live[:at], live[at+1:]...)

		if g.CheckEveryStep || len(live) <= checkBelow {
			sub := in.Psi.SelectRows(survivors())
			if mat.NewQR(sub).Rank() < k {
				// Restore and break (Algorithm 1 step 3(d)).
				active[victim] = true
				return survivors(), nil
			}
		}

		// Repair row maxima that pointed at the removed row, via the reverse
		// index (stale entries — rows whose argmax has since moved on, or a
		// duplicate of an already-repaired row — filter out on the live
		// rowArg). Each repaired row gets a fresh heap entry; its old one
		// (possibly just popped when the tie-break redirected the removal)
		// goes stale. The victim's list is consumed for good: an inactive
		// row is never an argmax again.
		for _, i32 := range argRev[victim] {
			i := int(i32)
			if active[i] && rowArg[i] == victim {
				recompute(i)
				heap.push(rowMax[i], i)
			}
		}
		argRev[victim] = nil
	}
	return survivors(), nil
}

// aggregates returns the sums of rows a's and b's correlations with their
// active peers (tie-break criterion: "the row that shows the highest
// correlation with the other ones"). Each sum runs in ascending peer order;
// the two run interleaved in one pass, so their add chains overlap.
func (g *Greedy) aggregates(gm []float32, nr int, live []int32, a, b int) (sa, sb float64) {
	ra, rb := gm[a*nr:(a+1)*nr], gm[b*nr:(b+1)*nr]
	for _, j32 := range live {
		j := int(j32)
		va, vb := float64(ra[j]), float64(rb[j])
		if g.SignedMax {
			// Aggregate redundancy is directionless even in signed mode.
			va, vb = math.Abs(va), math.Abs(vb)
		}
		if j != a {
			sa += va
		}
		if j != b {
			sb += vb
		}
	}
	return sa, sb
}

// correlations returns Algorithm 1's row-correlation matrix of the
// normalized rows of u, R×R in float32: G[i][j] = |uᵢ·uⱼ| off the diagonal
// (the signed product when signed), and a diagonal of 0, or −∞ when signed
// so a row never selects itself. It also returns each row's largest
// off-diagonal entry and its column (the first on ties, −1 when there is
// none): the row maxima with every row still active.
//
// Rows are built eight at a time as one batch product U·[uᵢ … uᵢ₊₇]
// through mat.MulVecBiasBatchInto against a zero bias, which runs eight
// snapshots through its AVX-512 kernel where the CPU has one: each entry is
// then a single dot product summed left to right from +0 — mat.Dot's sum,
// and the same one for G[i][j] and G[j][i] since the products commute — so
// both triangles come out exactly as the pairwise build would mirror them,
// whatever the block width or kernel. The blocks are independent, so they
// fan out over the CPUs.
func correlations(u *mat.Matrix, signed bool) (gm, rowMax []float32, rowArg []int) {
	nr := u.Rows()
	gm = make([]float32, nr*nr)
	rowMax = make([]float32, nr)
	rowArg = make([]int, nr)
	diag := float32(0)
	if signed {
		diag = float32(math.Inf(-1))
	}
	zero := make([]float64, nr)
	const width = 8
	mat.ParallelChunks((nr+width-1)/width, 0, func(lo, hi int) {
		buf := mat.New(width, nr)
		dst := make([][]float64, width)
		xs := make([][]float64, width)
		for b := lo; b < hi; b++ {
			i0, i1 := width*b, min(width*b+width, nr)
			for i := i0; i < i1; i++ {
				dst[i-i0] = buf.Row(i - i0)
				xs[i-i0] = u.Row(i)
			}
			mat.MulVecBiasBatchInto(dst[:i1-i0], zero, u, xs[:i1-i0])
			for i := i0; i < i1; i++ {
				row := gm[i*nr : (i+1)*nr]
				best := float32(math.Inf(-1))
				arg := -1
				for j, v := range dst[i-i0] {
					if !signed {
						v = math.Abs(v)
					}
					row[j] = float32(v)
					if j != i && row[j] > best {
						best = row[j]
						arg = j
					}
				}
				row[i] = diag
				rowMax[i], rowArg[i] = best, arg
			}
		}
	})
	return gm, rowMax, rowArg
}
