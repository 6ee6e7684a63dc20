package topology

import "testing"

func TestLinkEnableDisable(t *testing.T) {
	g := Line(3, false)
	if !g.LinkEnabled(0, 1) || !g.LinkEnabled(1, 0) {
		t.Fatal("fresh link not enabled")
	}
	g.SetLinkEnabled(0, 1, false)
	if g.LinkEnabled(0, 1) || g.LinkEnabled(1, 0) {
		t.Error("disabled link still enabled (a failed link is dead in both directions)")
	}
	if !g.HasLink(0, 1) {
		t.Error("disabling removed the link structurally")
	}
	if g.Cost(0, 1) == 0 {
		t.Error("disabling wiped the link cost")
	}
	if !g.LinkEnabled(1, 2) {
		t.Error("disabling 0-1 affected 1-2")
	}
	if !g.HasDownLinks() {
		t.Error("HasDownLinks false with 0-1 down")
	}
	g.SetLinkEnabled(1, 0, true) // endpoint order must not matter
	if !g.LinkEnabled(0, 1) {
		t.Error("re-enable via swapped endpoints did not take")
	}
	if g.HasDownLinks() {
		t.Error("HasDownLinks true after repair")
	}
}

func TestLinkEnabledMissingLink(t *testing.T) {
	g := Line(3, false)
	if g.LinkEnabled(0, 2) {
		t.Error("missing link reported enabled")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetLinkEnabled on missing link did not panic")
		}
	}()
	g.SetLinkEnabled(0, 2, false)
}

func TestConnectedRespectsLinkState(t *testing.T) {
	g := Line(4, false)
	if !g.Connected() {
		t.Fatal("line not connected")
	}
	g.SetLinkEnabled(1, 2, false)
	if g.Connected() {
		t.Error("Connected ignores a partitioning link failure")
	}
	g.SetLinkEnabled(1, 2, true)
	if !g.Connected() {
		t.Error("repair did not restore connectivity")
	}
}

func TestCloneCopiesLinkState(t *testing.T) {
	g := Line(3, false)
	g.SetLinkEnabled(0, 1, false)
	c := g.Clone()
	if c.LinkEnabled(0, 1) {
		t.Error("clone lost the down link")
	}
	// Independence both ways.
	c.SetLinkEnabled(0, 1, true)
	if g.LinkEnabled(0, 1) {
		t.Error("clone repair leaked into the original")
	}
	g.SetLinkEnabled(1, 2, false)
	if !c.LinkEnabled(1, 2) {
		t.Error("original failure leaked into the clone")
	}
}
