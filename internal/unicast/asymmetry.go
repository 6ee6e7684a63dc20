package unicast

import (
	"math/rand"

	"hbh/internal/topology"
)

// AsymmetrySampleDefault is the default pair budget for
// EstimateAsymmetryFraction. 2000 sampled pairs put the estimator's
// standard error near 1% — plenty for the diagnostic "is this topology
// realistically asymmetric" question topogen answers.
const AsymmetrySampleDefault = 2000

// EstimateAsymmetryFraction returns the fraction of unordered router
// pairs whose forward and reverse shortest paths differ. Whenever the
// pair count fits the budget it enumerates every pair and the result
// is exact. Above it, it measures maxPairs seeded-random pairs, because
// the exhaustive walk is O(n²·pathlen): at 50k routers that is ~10⁹
// path reconstructions, each of which would also fill per-source rows
// into a bounded router. maxPairs <= 0 selects AsymmetrySampleDefault.
func EstimateAsymmetryFraction(r Router, seed int64, maxPairs int) float64 {
	if maxPairs <= 0 {
		maxPairs = AsymmetrySampleDefault
	}
	routers := r.Graph().Routers()
	n := len(routers)
	if n < 2 {
		return 0
	}
	pairs := n * (n - 1) / 2
	if pairs <= maxPairs {
		asym := 0
		for i, a := range routers {
			for _, b := range routers[i+1:] {
				if Asymmetric(r, a, b) {
					asym++
				}
			}
		}
		return float64(asym) / float64(pairs)
	}
	rng := rand.New(rand.NewSource(seed))
	asym := 0
	for k := 0; k < maxPairs; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		var a, b topology.NodeID = routers[i], routers[j]
		if Asymmetric(r, a, b) {
			asym++
		}
	}
	return float64(asym) / float64(maxPairs)
}
