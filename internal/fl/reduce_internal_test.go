package fl

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomUpdates(r *rand.Rand, clients, n int) []Update {
	ups := make([]Update, clients)
	for i := range ups {
		d := make([]float64, n)
		for j := range d {
			d[j] = r.NormFloat64()
		}
		ups[i] = Update{ClientID: i, Delta: d, Weight: 1 + 9*r.Float64()}
	}
	return ups
}

// serialFold is the fold's oracle: a serial, unnormalized, participant-order
// loop over the updates that carry a delta and lie inside the cut (in nil =
// no cut), divided once at the end.
func serialFold(flat []float64, ups []Update, in []bool) {
	agg := make([]float64, len(flat))
	var totalW float64
	for i, u := range ups {
		if u.Delta == nil || (in != nil && !in[i]) {
			continue
		}
		for j, v := range u.Delta {
			agg[j] += u.Weight * v
		}
		totalW += u.Weight
	}
	for j := range flat {
		flat[j] += agg[j] / totalW
	}
}

// TestOnlineFoldMatchesAnyCompletionOrder: folding updates at the in-order
// frontier must match the serial oracle bit for bit no matter which order
// completions arrive in — the property that makes the online path
// worker-count invariant — with and without a cut mask, skipping updates
// without a delta (dropped or quarantined), and handing every folded delta
// back to the pool while leaving the rest with their owner.
func TestOnlineFoldMatchesAnyCompletionOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, clients = 32, 7
	ref := randomUpdates(r, clients, n)
	ref[4].Delta = nil // dropped or quarantined on arrival
	base := make([]float64, n)
	for j := range base {
		base[j] = r.NormFloat64()
	}
	masks := map[string][]bool{
		"no-cut": nil,
		"cut":    {true, false, true, true, true, false, true},
	}
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 5, 2, 4},
	}
	for name, in := range masks {
		want := append([]float64(nil), base...)
		serialFold(want, ref, in)
		for oi, order := range orders {
			label := fmt.Sprintf("%s order %d", name, oi)
			ups := make([]Update, clients)
			for i := range ups {
				ups[i] = ref[i]
				if ref[i].Delta != nil {
					ups[i].Delta = append([]float64(nil), ref[i].Delta...)
				}
			}
			f := fold{pool: &deltaPool{}}
			f.reset(ups, n)
			f.in = in
			for _, i := range order {
				f.complete(i)
			}
			if f.next != clients {
				t.Fatalf("%s: fold frontier stopped at %d/%d", label, f.next, clients)
			}
			got := append([]float64(nil), base...)
			f.apply(got)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s: flat[%d] = %v, oracle %v", label, j, got[j], want[j])
				}
			}
			for i, u := range ups {
				folded := ref[i].Delta != nil && (in == nil || in[i])
				if folded != (u.Delta == nil && ref[i].Delta != nil) {
					t.Fatalf("%s: update %d folded=%v but Delta nil=%v", label, i, folded, u.Delta == nil)
				}
			}
		}
	}
}
