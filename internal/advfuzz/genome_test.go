package advfuzz

import (
	"testing"

	"hbh/internal/experiment"
	"hbh/internal/testseed"
)

// TestNormalizeIdempotent asserts the fold is stable: normalizing a
// normalized genome must be the identity, or re-encoding a decoded
// input would name a different scenario than the input did.
func TestNormalizeIdempotent(t *testing.T) {
	rng := testseed.Rand(t)
	for i := 0; i < 1000; i++ {
		raw := make([]byte, 23)
		rng.Read(raw)
		g := DecodeBytes(raw)
		if again := g.Normalize(); again != g {
			t.Fatalf("Normalize not idempotent:\n  %+v\n  %+v", g, again)
		}
	}
}

// TestEncodeBytesRoundTrip asserts the byte codec is lossless over
// normalized genomes: the seed corpus handed to f.Add, and random
// decoded inputs.
func TestEncodeBytesRoundTrip(t *testing.T) {
	gs := DefaultSeeds()
	rng := testseed.Rand(t)
	for i := 0; i < 500; i++ {
		raw := make([]byte, 24)
		rng.Read(raw)
		gs = append(gs, DecodeBytes(raw))
	}
	for _, g := range gs {
		g = g.Normalize()
		if back := DecodeBytes(g.EncodeBytes()); back != g {
			t.Fatalf("byte round-trip changed the genome:\n  %+v\n  %+v", g, back)
		}
	}
}

// TestSpecRoundTripThroughEngine asserts every seed genome maps to a
// spec the engine accepts and runs at its full window, beyond the cap
// FuzzScenario applies (guards the genome -> AdvSpec translation
// against parameter-validation panics).
func TestSpecRoundTripThroughEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every seed through the engine; skipped in -short")
	}
	for i, g := range DefaultSeeds() {
		spec := g.Spec()
		if spec.Receivers < 1 || spec.WindowIntervals < 8 {
			t.Fatalf("seed %d maps to invalid spec: %+v", i, spec)
		}
		experiment.AdversarialRun(spec)
	}
}
