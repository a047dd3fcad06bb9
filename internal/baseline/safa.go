package baseline

import "fedca/internal/fl"

// SAFA is a semi-asynchronous baseline in the spirit of Wu et al. (cited by
// the paper as the family that "exploits the lately-returned updates from the
// stragglers"): updates that missed the aggregation cutoff are NOT thrown
// away — they are cached and folded into the next round's aggregation with a
// staleness discount λ.
type SAFA struct {
	// Discount λ ∈ [0, 1] scales one-round-stale updates (0 = plain FedAvg).
	Discount float64

	cache []fl.Update // stale updates waiting for the next aggregation
}

// NewSAFA builds a SAFA aggregator with the given staleness discount.
func NewSAFA(discount float64) *SAFA {
	if discount < 0 || discount > 1 {
		panic("baseline: SAFA discount must be in [0, 1]")
	}
	return &SAFA{Discount: discount}
}

// Name returns "safa".
func (*SAFA) Name() string { return "safa" }

// PlanRound sets no deadline and no budgets.
func (*SAFA) PlanRound(int, *fl.History) fl.RoundPlan {
	return fl.RoundPlan{Deadline: fl.NoDeadline()}
}

// NewController returns the no-op controller.
func (*SAFA) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return fl.NopController{}
}

// Aggregate folds the fresh updates plus last round's cached stragglers
// (discounted by λ) into the global model, then caches this round's
// stragglers for the next one.
func (s *SAFA) Aggregate(round int, flat []float64, collected, discarded []fl.Update) []float64 {
	totalW := 0.0
	for _, u := range collected {
		totalW += u.Weight
	}
	for _, u := range s.cache {
		totalW += s.Discount * u.Weight
	}
	out := make([]float64, len(flat))
	copy(out, flat)
	if totalW > 0 {
		for _, u := range collected {
			w := u.Weight / totalW
			for j, v := range u.Delta {
				out[j] += w * v
			}
		}
		for _, u := range s.cache {
			w := s.Discount * u.Weight / totalW
			for j, v := range u.Delta {
				out[j] += w * v
			}
		}
	}
	// Cache this round's late-but-complete updates for the next aggregation.
	// Copy the deltas: the runner recycles them after we return.
	s.cache = s.cache[:0]
	if s.Discount > 0 {
		for _, u := range discarded {
			if u.Dropped || u.Delta == nil {
				continue
			}
			cp := u
			cp.Delta = append([]float64(nil), u.Delta...)
			s.cache = append(s.cache, cp)
		}
	}
	return out
}

// CachedStale reports how many stale updates await the next round.
func (s *SAFA) CachedStale() int { return len(s.cache) }
