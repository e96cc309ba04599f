package place

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// The reference formulation of Algorithm 1 that Greedy.Allocate's blocked
// correlation build and active-list scans must reproduce exactly (see
// TestGreedyBitIdenticalToReference).

// refOptions selects the arms the reference keeps beyond Allocate's one
// rule: the paper-literal signed max element instead of the magnitude, and
// a rank check after every removal instead of from max(4K, M+K) survivors.
type refOptions struct {
	signed, every bool
}

// refAllocate is Greedy.Allocate with one serial Dot per correlation pair
// and full-range scans over the active flags, run in the arms opt selects.
// With rescan set, the victim is found by an O(R) linear scan over the row
// maxima instead of the lazy max-heap — the formulation the heap must
// reproduce exactly.
func refAllocate(opt refOptions, in Input, rescan bool) ([]int, error) {
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
	gm := make([]float32, nr*nr)
	for i := 0; i < nr; i++ {
		ri := u.Row(i)
		for j := i + 1; j < nr; j++ {
			v := mat.Dot(ri, u.Row(j))
			if !opt.signed {
				v = math.Abs(v)
			}
			gm[i*nr+j] = float32(v)
			gm[j*nr+i] = float32(v)
		}
		if opt.signed {
			gm[i*nr+i] = float32(math.Inf(-1))
		}
	}

	active := make([]bool, nr)
	for i := range active {
		active[i] = true
	}
	remaining := nr

	// Per-row max correlation and argmax over active peers, maintained
	// incrementally: recomputed only for rows whose argmax was removed.
	// argRev is the reverse index — argRev[j] holds every row that ever set
	// rowArg = j since argRev[j] was last consumed — so the repair step
	// touches only candidate rows instead of scanning all R. Entries go
	// stale when a later recompute moves the row's argmax elsewhere; the
	// consumer filters on the live rowArg.
	rowMax := make([]float32, nr)
	rowArg := make([]int, nr)
	argRev := make([][]int32, nr)
	recompute := func(i int) {
		best := float32(math.Inf(-1))
		arg := -1
		base := i * nr
		for j := 0; j < nr; j++ {
			if j == i || !active[j] {
				continue
			}
			if v := gm[base+j]; v > best {
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
	for i := 0; i < nr; i++ {
		recompute(i)
	}

	// Heap over the row maxima (unless the rescan is requested). Invariant:
	// every active row has an entry carrying its current rowMax; entries
	// invalidated by removals or recomputes are skipped at pop time.
	var heap *rowMaxHeap
	if !rescan {
		heap = &rowMaxHeap{val: make([]float32, 0, nr), row: make([]int32, 0, nr)}
		for i := 0; i < nr; i++ {
			heap.push(rowMax[i], i)
		}
	}

	checkBelow := 4 * k
	if in.M+k > checkBelow {
		checkBelow = in.M + k
	}

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

	for remaining > in.M {
		// Row participating in the globally strongest correlation.
		victim := -1
		if rescan {
			best := float32(math.Inf(-1))
			for i := 0; i < nr; i++ {
				if !active[i] {
					continue
				}
				if rowMax[i] > best {
					best = rowMax[i]
					victim = i
				}
			}
		} else {
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
		}
		if victim < 0 {
			break // single row left or no correlations
		}
		// The max pair is (victim, rowArg[victim]); both see the same value.
		// Remove the endpoint with the larger aggregate correlation — the
		// more redundant of the two.
		if j := rowArg[victim]; j >= 0 && rowMax[j] == rowMax[victim] {
			if refAggregate(opt, gm, nr, active, j) > refAggregate(opt, gm, nr, active, victim) {
				victim = j
			}
		}

		active[victim] = false
		remaining--

		if opt.every || remaining <= checkBelow {
			sub := in.Psi.SelectRows(survivors())
			if mat.NewQR(sub).Rank() < k {
				// Restore and break (Algorithm 1 step 3(d)).
				active[victim] = true
				remaining++
				return survivors(), nil
			}
		}

		// Repair row maxima that pointed at the removed row, via the reverse
		// index (stale entries — rows whose argmax has since moved on, or a
		// duplicate of an already-repaired row — filter out on the live
		// rowArg). In heap mode each repaired row gets a fresh entry; its
		// old one (possibly just popped when the tie-break redirected the
		// removal) goes stale. The victim's list is consumed for good: an
		// inactive row is never an argmax again.
		for _, i32 := range argRev[victim] {
			i := int(i32)
			if active[i] && rowArg[i] == victim {
				recompute(i)
				if heap != nil {
					heap.push(rowMax[i], i)
				}
			}
		}
		argRev[victim] = nil
	}
	return survivors(), nil
}

func refAggregate(opt refOptions, gm []float32, nr int, active []bool, i int) float64 {
	var s float64
	base := i * nr
	for j := 0; j < nr; j++ {
		if j == i || !active[j] {
			continue
		}
		v := float64(gm[base+j])
		if opt.signed {
			// Aggregate redundancy is directionless even in signed mode.
			v = math.Abs(v)
		}
		s += v
	}
	return s
}
