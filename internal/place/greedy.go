package place

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// Greedy is the paper's Algorithm 1: normalize the rows of Ψ_K, take the
// row correlations G = UU* − I, and repeatedly delete the row involved in
// the strongest remaining correlation until M rows survive, guarding
// against rank collapse of the sensing matrix.
//
// Five implementation notes, all recorded in DESIGN.md:
//
//   - Correlation magnitude. We eliminate by |G[i,j]| rather than the signed
//     maximum: a row and its negation span the same direction and are just as
//     redundant.
//   - Rank-check schedule. Checking rank(Ψ̃) after every removal is O(N²K²)
//     overall; rank can only become critical once few rows remain, so we
//     start checking when the survivor count drops to max(4K, M+K). The
//     tests hold this to the reference run checking every step.
//   - Victim selection. The globally strongest correlation is found by a
//     lazily-invalidated max-heap over the per-row maxima — O(log R) per
//     removal instead of the O(R) linear rescan — and the post-removal
//     repair walks a reverse index of argmax pointers instead of scanning
//     all rows. The algorithm as a whole stays Θ(R²K) — the initial row
//     maxima and the aggregates' decrement scan whole rows — but the
//     heap+index remove two of the three per-removal linear scans. At the
//     paper's scale the heap won 15 of 16 timed pairs against the rescan
//     (DESIGN.md); the rescan survives only as the test reference, which
//     must produce identical allocations.
//   - No stored G. The R×R matrix (45 MB in float32 at the paper's 3,360
//     cells) is never built: the normalized rows are kept K-major
//     (corrBlock) and each row of G is recomputed when a scan needs it, by
//     the column kernels of mat.DotsArgMax and mat.AbsDotsInto, whose
//     entries are bitwise the stored ones. Memory is O(R·K).
//   - Running tie-break aggregates. Each live row's sum of correlation
//     magnitudes is seeded by the initial row-max pass and decremented
//     after every removal; the tie-break trusts two of them only when
//     they differ by more than a rounding bound τ, and otherwise sums the
//     two rows exactly, so every decision is the exact sums'.
type Greedy struct{}

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
	sensors, _, err := g.allocate(in, matKernels, tieSlack)
	return sensors, err
}

// columnKernels are the kernels Allocate runs over the K-major block: a
// row's largest correlation with the other live rows and its first column
// (mat.DotsArgMax), the same plus the sum of the row's correlation
// magnitudes (mat.DotsArgMaxSum), and a row's correlation magnitudes with
// every column (mat.AbsDotsInto). The tests run Allocate through mat's
// kernels and through scalar ones built on mat.Dot.
type columnKernels struct {
	argMax    func(x, b []float64, skip int) (float32, int)
	argMaxSum func(x, b []float64, skip int) (float32, int, float64)
	absInto   func(dst []float32, x, b []float64)
}

var matKernels = columnKernels{argMax: mat.DotsArgMax, argMaxSum: mat.DotsArgMaxSum, absInto: mat.AbsDotsInto}

// tieSlack sets the margin τ = tieSlack·R·2⁻⁵³·(A⁰ᵢ + A⁰ⱼ) by which two
// running aggregates must differ before the tie-break trusts them (see
// allocate); the tests raise it to +∞, which sends every tie-break to the
// exact sums.
const tieSlack = 6

// allocate is Allocate on the given kernels and tie-break slack. It also
// returns how many tie-breaks the running aggregates could not settle and
// the exact sums did.
func (g *Greedy) allocate(in Input, kern columnKernels, slack float64) ([]int, int, error) {
	if in.Psi == nil {
		return nil, 0, fmt.Errorf("%w: greedy needs Psi", ErrBadInput)
	}
	n, k := in.Psi.Dims()
	cells, err := allowedCells(n, in.Mask)
	if err != nil {
		return nil, 0, err
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
		return nil, 0, err
	}
	if in.M < k {
		return nil, 0, fmt.Errorf("%w: M=%d < K=%d cannot keep Ψ̃ full rank", ErrBadInput, in.M, k)
	}

	nr := len(rows)
	blk := newCorrBlock(in.Psi, rows)

	// rowArgMax returns row i's largest correlation with the other live
	// rows and the first row holding it (−1 when there is none): the
	// maximum of float32(|uᵢ·uⱼ|) over live j ≠ i in ascending order,
	// strict > from −∞.
	rowArgMax := func(i int, x []float64) (float32, int) {
		v, c := kern.argMax(blk.column(x, i), blk.data, int(blk.rowCol[i]))
		return v, blk.row(c)
	}

	// Per-row max correlation and argmax over active peers, maintained
	// incrementally: recomputed only for rows whose argmax was removed.
	// The initial maxima are independent row scans, so they fan out over
	// the CPUs. The same scans seed the running aggregates: row i's sum of
	// correlation magnitudes with its peers, blocked, in blk.agg at its
	// column (still column i here), and kept in agg0 as A⁰ᵢ.
	rowMax := make([]float32, nr)
	rowArg := make([]int, nr)
	workers := 0
	if nr*blk.n*k < mat.ParallelThreshold {
		workers = 1
	}
	mat.ParallelChunks(nr, workers, func(lo, hi int) {
		x := make([]float64, k)
		for i := lo; i < hi; i++ {
			var c int
			rowMax[i], c, blk.agg[i] = kern.argMaxSum(blk.column(x, i), blk.data, i)
			rowArg[i] = blk.row(c)
		}
	})
	agg0 := append([]float64(nil), blk.agg[:nr]...)

	// argRev is the reverse index — argRev[j] holds every row that ever set
	// rowArg = j since argRev[j] was last consumed — so the repair step
	// touches only candidate rows instead of scanning all R. Entries go
	// stale when a later recompute moves the row's argmax elsewhere; the
	// consumer filters on the live rowArg.
	argRev := make([][]int32, nr)
	for i, arg := range rowArg {
		if arg >= 0 {
			argRev[arg] = append(argRev[arg], int32(i))
		}
	}
	x := make([]float64, k)
	recompute := func(i int) {
		rowMax[i], rowArg[i] = rowArgMax(i, x)
		if arg := rowArg[i]; arg >= 0 {
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

	checkBelow := max(4*k, in.M+k)

	active := make([]bool, nr)
	for i := range active {
		active[i] = true
	}
	remaining := nr
	survivors := func() []int {
		out := make([]int, 0, remaining)
		for r, on := range active {
			if on {
				out = append(out, rows[r])
			}
		}
		sort.Ints(out)
		return out
	}

	// Scratch rows of correlation magnitudes for the running aggregates
	// and the exact tie-break.
	va, vb := make([]float32, blk.n), make([]float32, blk.n)
	fallbacks := 0

	for remaining > in.M {
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
		// more redundant of the two. The running aggregates decide when
		// they differ by more than τ, which bounds how far either can be
		// from the exact serial sum (DESIGN.md "Greedy allocation"); a
		// closer call is settled by the exact sums.
		if j := rowArg[victim]; j >= 0 && rowMax[j] == rowMax[victim] {
			aj, av := blk.agg[blk.rowCol[j]], blk.agg[blk.rowCol[victim]]
			tau := slack * float64(nr) * 0x1p-53 * (agg0[j] + agg0[victim])
			switch {
			case aj-av > tau:
				victim = j
			case av-aj > tau:
				// The victim stays.
			default:
				fallbacks++
				if ej, ev := blk.aggregates(kern, va[:blk.n], vb[:blk.n], x, j, victim); ej > ev {
					victim = j
				}
			}
		}

		active[victim] = false
		remaining--
		blk.column(x, victim)
		blk.kill(victim)
		// Take the victim out of every live row's aggregate: its column is
		// NaN now, so it reads +0 in its own row, as dead and padding
		// columns do.
		kern.absInto(va[:blk.n], x, blk.data)
		mat.SubWidened(blk.agg, va[:len(blk.agg)])

		if remaining <= checkBelow {
			sub := in.Psi.SelectRows(survivors())
			if mat.NewQR(sub).Rank() < k {
				// Restore and break (Algorithm 1 step 3(d)).
				active[victim] = true
				remaining++
				return survivors(), fallbacks, nil
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
	return survivors(), fallbacks, nil
}

// corrBlock holds the normalized candidate rows uᵢ = Ψ_K[rows[i]]/‖·‖ as the
// columns of a K-major block, the layout the column kernels read: element
// k of column c at data[k·n+c], n a multiple of mat.DotsWidth. Columns
// keep the rows in ascending order, so a scan in column order visits the
// live rows as an ascending scan over the rows would. A removed row's
// column is filled with NaN, which no kernel maximum ever picks and whose
// magnitude reads 0; once half the used columns are dead the live ones are
// moved to the front and the block shrinks, so the scans stay within
// twice the live rows. Its memory is O(R·K): the R×R correlation matrix is
// never stored, each row of it is recomputed when a scan needs it.
type corrBlock struct {
	k, n   int
	dead   int       // dead columns among the used ones
	data   []float64 // k·n values
	agg    []float64 // each used column's running aggregate (see allocate)
	colRow []int32   // row of each used column, −1 once dead; later columns pad
	rowCol []int32   // column of each row, −1 once dead
}

func newCorrBlock(psi *mat.Matrix, rows []int) *corrBlock {
	k := psi.Cols()
	b := &corrBlock{
		k:      k,
		n:      padColumns(len(rows)),
		agg:    make([]float64, len(rows)),
		colRow: make([]int32, len(rows)),
		rowCol: make([]int32, len(rows)),
	}
	b.data = make([]float64, k*b.n)
	u := make([]float64, k)
	for r, c := range rows {
		copy(u, psi.Row(c))
		mat.Normalize(u)
		for i, v := range u {
			b.data[i*b.n+r] = v
		}
		b.colRow[r], b.rowCol[r] = int32(r), int32(r)
	}
	b.fillNaN(len(rows))
	return b
}

// padColumns rounds a column count up to a positive multiple of
// mat.DotsWidth.
func padColumns(cols int) int {
	return max(1, (cols+mat.DotsWidth-1)/mat.DotsWidth) * mat.DotsWidth
}

// fillNaN marks columns from..n−1 as padding.
func (b *corrBlock) fillNaN(from int) {
	nan := math.NaN()
	for i := 0; i < b.k; i++ {
		pad := b.data[i*b.n+from : (i+1)*b.n]
		for c := range pad {
			pad[c] = nan
		}
	}
}

// row returns the row of column c, or −1 for a column index of −1 (no
// column).
func (b *corrBlock) row(c int) int {
	if c < 0 {
		return -1
	}
	return int(b.colRow[c])
}

// column copies row's normalized vector out of its column into x.
func (b *corrBlock) column(x []float64, row int) []float64 {
	c := int(b.rowCol[row])
	for i := range x {
		x[i] = b.data[i*b.n+c]
	}
	return x
}

// kill removes row from the scans: its column becomes NaN, and the block
// is compacted once half its used columns are dead.
func (b *corrBlock) kill(row int) {
	c := int(b.rowCol[row])
	nan := math.NaN()
	for i := 0; i < b.k; i++ {
		b.data[i*b.n+c] = nan
	}
	b.colRow[c], b.rowCol[row] = -1, -1
	b.dead++
	if 2*b.dead >= len(b.colRow) {
		b.compact()
	}
}

// compact moves the live columns, in order, to the front of a block of
// padColumns(live) columns. It copies in place, each block row forward:
// no value is overwritten before it is read, since the new row stride is
// at most the old one and every live column moves down or stays.
func (b *corrBlock) compact() {
	live := len(b.colRow) - b.dead
	n := padColumns(live)
	for i := 0; i < b.k; i++ {
		src, dst := b.data[i*b.n:i*b.n+len(b.colRow)], b.data[i*n:i*n+live]
		w := 0
		for c, r := range b.colRow {
			if r >= 0 {
				dst[w] = src[c]
				w++
			}
		}
	}
	w := 0
	for c, r := range b.colRow {
		if r >= 0 {
			b.colRow[w], b.rowCol[r], b.agg[w] = r, int32(w), b.agg[c]
			w++
		}
	}
	b.colRow, b.agg = b.colRow[:live], b.agg[:live]
	b.n, b.dead = n, 0
	b.data = b.data[:b.k*n]
	b.fillNaN(live)
}

// aggregates returns the sums of rows i's and j's correlation magnitudes
// with their live peers (tie-break criterion: "the row that shows the
// highest correlation with the other ones"). Each sum adds the float64 of every float32 magnitude in ascending
// peer order from +0, as a scan over the peers would: the row's own column
// is zeroed and a dead column's magnitude reads +0, and adding +0 to a sum
// that started at +0 leaves it bitwise unchanged. The two sums run
// interleaved in one pass, so their add chains overlap.
func (b *corrBlock) aggregates(kern columnKernels, vi, vj []float32, x []float64, i, j int) (si, sj float64) {
	kern.absInto(vi, b.column(x, i), b.data)
	kern.absInto(vj, b.column(x, j), b.data)
	vi[b.rowCol[i]] = 0
	vj[b.rowCol[j]] = 0
	vj = vj[:len(vi)]
	for c, v := range vi {
		si += float64(v)
		sj += float64(vj[c])
	}
	return si, sj
}
