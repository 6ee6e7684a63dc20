package advfuzz

import (
	"testing"

	"hbh/internal/testseed"
)

// TestSkewOldInputsUnchanged pins the backward-compatibility contract
// of the skew byte: it lives at offset 23, after everything the
// pre-skew codec encoded, so every old 23-byte input decodes to the
// exact genome it always did (Skew=0) and re-encodes byte-identically.
func TestSkewOldInputsUnchanged(t *testing.T) {
	rng := testseed.Rand(t)
	for i := 0; i < 500; i++ {
		raw := make([]byte, 23)
		rng.Read(raw)
		g := DecodeBytes(raw)
		if g.Skew != 0 {
			t.Fatalf("23-byte input decoded with Skew=%d: % x", g.Skew, raw)
		}
		// A trailing zero skew byte must be indistinguishable from no
		// skew byte at all.
		padded := DecodeBytes(append(append([]byte{}, raw...), 0))
		if padded != g {
			t.Fatalf("zero-padded input decoded differently:\n  %+v\n  %+v", g, padded)
		}
		if enc := g.EncodeBytes(); len(enc) != 23 {
			t.Fatalf("skew-free genome encoded to %d bytes, want 23", len(enc))
		}
	}
}

// TestSkewCorpusStable asserts the seed corpus predates the skew
// byte and is untouched by it: every seed has Skew=0 and keeps the
// 23-byte encoding FuzzScenario's seed entries have always run.
func TestSkewCorpusStable(t *testing.T) {
	for i, g := range DefaultSeeds() {
		if g.Normalize().Skew != 0 {
			t.Errorf("seed %d has Skew=%d", i, g.Normalize().Skew)
		}
		if enc := g.EncodeBytes(); len(enc) != 23 {
			t.Errorf("seed %d encodes to %d bytes, want 23", i, len(enc))
		}
	}
}

// TestSkewRoundTrip asserts genomes with a live skew byte survive the
// byte codec losslessly: the 24-byte encoding decodes back to the same
// genome.
func TestSkewRoundTrip(t *testing.T) {
	rng := testseed.Rand(t)
	for i := 0; i < 500; i++ {
		raw := make([]byte, 24)
		rng.Read(raw)
		g := DecodeBytes(raw)
		// Normalize folds the raw byte into 0..30, so a nonzero raw[23]
		// may still land on zero; force a live skew for the round-trip.
		g.Skew = uint8(1 + rng.Intn(30))
		enc := g.EncodeBytes()
		if len(enc) != 24 {
			t.Fatalf("skewed genome encoded to %d bytes, want 24", len(enc))
		}
		if back := DecodeBytes(enc); back != g {
			t.Fatalf("byte round-trip diverged:\n  %+v\n  %+v", g, back)
		}
	}
}

// TestSkewNormalizeAndSpec pins the knob's semantic range: Normalize
// folds the raw byte into 0..30 (percent), and Spec maps it to the
// TimerSkew fraction the experiment layer consumes.
func TestSkewNormalizeAndSpec(t *testing.T) {
	for v := 0; v < 256; v++ {
		g := Genome{Receivers: 4, Skew: uint8(v), Seed: 1}.Normalize()
		if g.Skew > 30 {
			t.Fatalf("Normalize left Skew=%d out of 0..30 (raw %d)", g.Skew, v)
		}
		want := float64(g.Skew) / 100
		if got := g.Spec().TimerSkew; got != want {
			t.Fatalf("Skew=%d mapped to TimerSkew=%v, want %v", g.Skew, got, want)
		}
	}
}
