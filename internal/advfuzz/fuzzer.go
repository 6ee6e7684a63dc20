package advfuzz

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hbh/internal/experiment"
	"hbh/internal/invariant"
	"hbh/internal/obs"
)

// Outcome is one genome execution: the engine's measurement plus the
// behavioral coverage signature the fuzzer steers by.
type Outcome struct {
	Result experiment.AdvResult
	// Signature is the sorted, de-duplicated set of coverage atoms the
	// run produced: "proto|kind:<event-kind>" for every observed event
	// kind, "proto|drop:<cause>" for every drop cause,
	// "proto|shape:<episode-shape>" for every causal episode shape
	// (obs.Episode.Shape), "proto|viol:<invariant>" for every violated
	// invariant, and "proto|run:..." markers for the run-level
	// outcomes (clean-capped, non-recovered, missing, duplicates).
	Signature []string
}

// sigCollector is the obs sink that gathers event kinds and drop
// causes while a genome runs.
type sigCollector struct {
	kinds  map[obs.Kind]bool
	causes map[obs.Cause]bool
}

func (c *sigCollector) Emit(ev obs.Event) {
	c.kinds[ev.Kind] = true
	if ev.Kind == obs.KindDrop {
		c.causes[ev.Cause] = true
	}
}

// Execute runs one genome under the invariant oracle and collects its
// coverage signature. Deterministic: the same genome always produces
// the same outcome.
func Execute(g Genome) Outcome {
	g = g.Normalize()
	o := obs.New(nil)
	col := &sigCollector{kinds: map[obs.Kind]bool{}, causes: map[obs.Cause]bool{}}
	eb := obs.NewEpisodeBuilder(0)
	o.AddSink(col)
	o.AddSink(eb)

	spec := g.Spec()
	spec.Check = true
	spec.Obs = o
	res := experiment.AdversarialRun(spec)

	proto := string(fuzzProtocols[g.Protocol])
	atoms := map[string]bool{}
	for k := range col.kinds {
		atoms[proto+"|kind:"+k.String()] = true
	}
	for c := range col.causes {
		atoms[proto+"|drop:"+c.String()] = true
	}
	for _, e := range eb.Episodes() {
		atoms[proto+"|shape:"+e.Shape()] = true
	}
	for _, v := range res.Violations {
		atoms[proto+"|viol:"+v.Invariant] = true
	}
	if !res.CleanConverged {
		atoms[proto+"|run:clean-capped"] = true
	}
	if !res.Recovered {
		atoms[proto+"|run:non-recovered"] = true
	}
	if res.Missing > 0 {
		atoms[proto+"|run:missing"] = true
	}
	if res.Duplicates > 0 {
		atoms[proto+"|run:duplicates"] = true
	}

	out := Outcome{Result: res, Signature: make([]string, 0, len(atoms))}
	for a := range atoms {
		out.Signature = append(out.Signature, a)
	}
	sort.Strings(out.Signature)
	return out
}

// Finding is one violating genome the fuzzer hit, with its minimized
// form and the violations the minimized form still reproduces.
type Finding struct {
	Found      Genome
	Minimized  Genome
	Violations []invariant.Violation
	// ReproPath is where the minimized repro file was written (empty
	// when the fuzzer has no output directory).
	ReproPath string
}

// Stats summarizes a fuzzing campaign.
type Stats struct {
	Iterations int
	// Interesting counts executions that grew the coverage set (and
	// therefore joined the corpus).
	Interesting int
	CorpusSize  int
	// Atoms is the total behavioral coverage achieved.
	Atoms    int
	Findings int
}

// Fuzzer is the coverage-guided mutation loop.
type Fuzzer struct {
	rng      *rand.Rand
	corpus   []Genome
	coverage map[string]bool
	findings []Finding
	// exec runs one genome; swapped out by unit tests to exercise the
	// loop and the minimizer against synthetic oracles.
	exec func(Genome) Outcome
	// Log, when non-nil, receives one line per corpus addition and per
	// finding.
	Log io.Writer
	// OutDir, when non-empty, receives minimized repro files
	// (<id>.genome) for every finding.
	OutDir string
}

// NewFuzzer builds a fuzzer seeded for deterministic mutation order.
func NewFuzzer(seed int64) *Fuzzer {
	return &Fuzzer{
		rng:      rand.New(rand.NewSource(seed)),
		coverage: map[string]bool{},
		exec:     Execute,
	}
}

func (f *Fuzzer) logf(format string, args ...any) {
	if f.Log != nil {
		fmt.Fprintf(f.Log, format+"\n", args...)
	}
}

// AddSeed executes a seed genome and adds it to the corpus
// unconditionally (seeds anchor the mutation pool even when they cover
// nothing new).
func (f *Fuzzer) AddSeed(g Genome) {
	g = g.Normalize()
	out := f.exec(g)
	grew := f.absorb(g, out)
	f.corpus = append(f.corpus, g)
	f.logf("seed %s: %d atoms (%d new) — %s", g.ID(), len(out.Signature), grew, g)
}

// absorb folds an outcome into the coverage set, records any finding,
// and returns how many new atoms the run contributed.
func (f *Fuzzer) absorb(g Genome, out Outcome) int {
	grew := 0
	for _, a := range out.Signature {
		if !f.coverage[a] {
			f.coverage[a] = true
			grew++
		}
	}
	if len(out.Result.Violations) > 0 {
		f.record(g)
	}
	return grew
}

// record minimizes a violating genome and stores (and, with OutDir,
// writes) the finding.
func (f *Fuzzer) record(g Genome) {
	reproduces := func(c Genome) bool {
		return len(f.exec(c).Result.Violations) > 0
	}
	min := f.Minimize(g, reproduces)
	fd := Finding{Found: g, Minimized: min, Violations: f.exec(min).Result.Violations}
	if f.OutDir != "" {
		path := filepath.Join(f.OutDir, min.ID()+".genome")
		body := fmt.Sprintf("# minimized repro: %d invariant violation(s)\n# first: %s\n%s",
			len(fd.Violations), firstLine(fd.Violations[0].String()), min.Encode())
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			f.logf("FINDING %s: writing repro failed: %v", min.ID(), err)
		} else {
			fd.ReproPath = path
		}
	}
	f.findings = append(f.findings, fd)
	f.logf("FINDING %s (minimized from %s): %d violation(s), first: %s",
		min.ID(), g.ID(), len(fd.Violations), firstLine(fd.Violations[0].String()))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Findings returns the recorded findings.
func (f *Fuzzer) Findings() []Finding { return f.findings }

// Coverage returns the sorted coverage atoms accumulated so far.
func (f *Fuzzer) Coverage() []string {
	out := make([]string, 0, len(f.coverage))
	for a := range f.coverage {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Run executes the mutation loop for iters iterations: pick a corpus
// parent (or a fresh random genome when the corpus is empty), mutate,
// execute, keep if the coverage grew. Violations are minimized and
// recorded as they are hit.
func (f *Fuzzer) Run(iters int) Stats {
	st := Stats{}
	for i := 0; i < iters; i++ {
		var cand Genome
		if len(f.corpus) == 0 || f.rng.Intn(10) == 0 {
			cand = f.random()
		} else {
			cand = f.Mutate(f.corpus[f.rng.Intn(len(f.corpus))])
		}
		out := f.exec(cand)
		st.Iterations++
		if grew := f.absorb(cand, out); grew > 0 {
			f.corpus = append(f.corpus, cand)
			st.Interesting++
			f.logf("iter %d: +%d atoms (total %d) — %s", i, grew, len(f.coverage), cand)
		}
	}
	st.CorpusSize = len(f.corpus)
	st.Atoms = len(f.coverage)
	st.Findings = len(f.findings)
	return st
}

// random draws a fresh genome uniformly from the byte space.
func (f *Fuzzer) random() Genome {
	raw := make([]byte, 24)
	f.rng.Read(raw)
	g := DecodeBytes(raw)
	// Fresh seeds dominate fresh knob bytes for reaching new behavior;
	// keep them small so repro files stay readable.
	g.Seed = int64(f.rng.Intn(1 << 20))
	return g
}

// Mutate returns a copy of g with one or two fields tweaked: a small
// step or a fresh draw on a knob byte, or a reseed.
func (f *Fuzzer) Mutate(g Genome) Genome {
	g = g.Normalize()
	for n := 1 + f.rng.Intn(2); n > 0; n-- {
		switch k := f.rng.Intn(len(mutableFieldNames) + 3); {
		case k == len(mutableFieldNames): // reseed
			g.Seed = int64(f.rng.Intn(1 << 20))
		case k == len(mutableFieldNames)+1: // switch topology
			g.Topo = uint8(f.rng.Intn(len(fuzzTopos)))
		case k == len(mutableFieldNames)+2: // switch protocol
			g.Protocol = uint8(f.rng.Intn(len(fuzzProtocols)))
		default:
			p, _ := byteField(&g, mutableFieldNames[k])
			if f.rng.Intn(2) == 0 {
				*p += uint8(1 + f.rng.Intn(3)) // small step (wraps, Normalize folds)
			} else {
				*p = uint8(f.rng.Intn(256)) // fresh draw
			}
		}
	}
	return g.Normalize()
}

// Minimize shrinks a reproducing genome toward Benign(g): each knob
// field is first zeroed outright, then bisected toward the benign
// value, keeping every change that still reproduces, until a full pass
// shrinks nothing. reproduces must be deterministic. The topology,
// protocol, receiver count and seed are never changed — they name the
// scenario rather than scale the adversity.
func (f *Fuzzer) Minimize(g Genome, reproduces func(Genome) bool) Genome {
	g = g.Normalize()
	if !reproduces(g) {
		panic("advfuzz: Minimize called with a non-reproducing genome")
	}
	benign := Benign(g)
	for shrunk := true; shrunk; {
		shrunk = false
		for _, name := range mutableFieldNames {
			if name == "receivers" {
				continue
			}
			p, _ := byteField(&g, name)
			bp, _ := byteField(&benign, name)
			if *p == *bp {
				continue
			}
			// All the way to benign first: most knobs are irrelevant to
			// any given violation and vanish in one probe.
			save := *p
			*p = *bp
			if reproduces(g.Normalize()) {
				g = g.Normalize()
				shrunk = true
				continue
			}
			*p = save
			// Bisect the survivors toward benign.
			lo, hi := *bp, *p // reproduction known at hi, not at lo
			for gap := int(hi) - int(lo); gap > 1; gap = int(hi) - int(lo) {
				mid := uint8(int(lo) + gap/2)
				*p = mid
				if reproduces(g.Normalize()) {
					hi = mid
					g = g.Normalize()
					shrunk = true
				} else {
					lo = mid
				}
			}
			*p = hi
			g = g.Normalize()
		}
	}
	return g
}
