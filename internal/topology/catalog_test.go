// External test package: needs internal/unicast, which imports
// topology itself.
package topology_test

import (
	"math"
	"math/rand"
	"testing"

	"hbh/internal/topology"
	"hbh/internal/unicast"
)

func TestNSFNETShape(t *testing.T) {
	g := topology.NSFNET()
	if got := len(g.Routers()); got != 14 {
		t.Errorf("routers = %d, want 14", got)
	}
	// 21 backbone links + 14 host links.
	if got := g.NumEdges(); got != 35 {
		t.Errorf("links = %d, want 35", got)
	}
	if !g.Connected() {
		t.Error("NSFNET disconnected")
	}
	// Published average degree 3.0.
	if d := g.AvgRouterDegree(); d != 3.0 {
		t.Errorf("avg degree = %.2f, want 3.0", d)
	}
}

func TestAbileneShape(t *testing.T) {
	g := topology.Abilene()
	if got := len(g.Routers()); got != 11 {
		t.Errorf("routers = %d, want 11", got)
	}
	// 14 backbone links + 11 host links.
	if got := g.NumEdges(); got != 25 {
		t.Errorf("links = %d, want 25", got)
	}
	if !g.Connected() {
		t.Error("Abilene disconnected")
	}
}

func TestCatalogAsymmetryUnderRandomCosts(t *testing.T) {
	for name, build := range map[string]func() *topology.Graph{
		"nsfnet":  topology.NSFNET,
		"abilene": topology.Abilene,
	} {
		g := build()
		g.RandomizeCosts(rand.New(rand.NewSource(3)), 1, 10)
		r := unicast.Compute(g)
		if f := unicast.EstimateAsymmetryFraction(r, 0, math.MaxInt); f < 0.1 {
			t.Errorf("%s: asymmetry fraction %.2f suspiciously low", name, f)
		}
	}
}
