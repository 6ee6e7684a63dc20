// Package testseed pins the inputs of the repository's randomised
// tests: every testing/quick property draws from a source seeded here —
// fixed by default, overridden by HBH_QUICK_SEED — and the seed is
// logged either way, so a failure names the run that reproduces it.
package testseed

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// defaultSeed is the seed a test draws from when HBH_QUICK_SEED is
// unset.
const defaultSeed = 20011

// Seed returns the seed of t's random inputs: HBH_QUICK_SEED when set,
// a fixed one otherwise.
func Seed(t testing.TB) int64 {
	t.Helper()
	seed := int64(defaultSeed)
	if v := os.Getenv("HBH_QUICK_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("HBH_QUICK_SEED=%q: %v", v, err)
		}
		seed = s
	}
	t.Logf("input seed %d (rerun with HBH_QUICK_SEED=%d)", seed, seed)
	return seed
}

// Rand returns a source seeded with Seed(t): a quick.Config's Rand.
func Rand(t testing.TB) *rand.Rand {
	t.Helper()
	return rand.New(rand.NewSource(Seed(t)))
}
