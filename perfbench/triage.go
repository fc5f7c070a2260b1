package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// triageWorkload is an on-call engineer working live incidents through
// murphyd: one client ingests the next slice, then diagnoses the next of a
// fixed list of the incident's symptoms, and repeats (closed loop), so every
// diagnosis sees fresh data.
var triageWorkload = &workload{
	name:    "triage",
	primary: "diagnose",
	tails:   map[string]float64{"diagnose": 90, "ingest": 90},
	loops: map[string]string{
		"diagnose": "closed loop, 1 client, 1 connection",
		"ingest":   "closed loop, 1 client, 1 connection",
	},
	run: runTriage,
}

// triageSize sizes the script: incidents worked in turn (0: one per fault
// location), symptoms per incident (round r diagnoses symptom r mod
// symptoms), rounds per pass, and Monte-Carlo samples per counterfactual
// test.
type triageSize struct{ incidents, symptoms, rounds, samples int }

func triageSizeFor(tiny bool) triageSize {
	if tiny {
		return triageSize{incidents: 2, symptoms: 2, rounds: 2, samples: 200}
	}
	return triageSize{symptoms: 3, rounds: 6, samples: 1000}
}

// faultProbes is how many seeds faultSeeds tries to cover every location.
const faultProbes = 200

// diagResult is one scripted diagnosis's certified causes; ok is false when
// the diagnosis failed.
type diagResult struct {
	ok     bool
	causes []rankedCause
}

// runTriage works one incident per fault location in turn, one pass per
// incident: every pass boots a fresh daemon over the incident's snapshot and
// runs its rounds. A cycle is one pass of every incident, and cycles repeat
// until the timed phase has lasted the budget. The budget is checked only
// between cycles, because an incident's diagnosis cost depends on where its
// fault is: whole cycles give every run, fast or slow, the same mix of
// incidents. A repeated pass asks the same questions of the same data, so it
// must get the same answers.
func runTriage(e *env) (*outcome, error) {
	sz := triageSizeFor(e.opts.tiny)
	seeds, err := faultSeeds(e.opts.seed*1000, faultProbes)
	if err != nil {
		return nil, err
	}
	if sz.incidents > 0 && sz.incidents < len(seeds) {
		seeds = seeds[:sz.incidents]
	}
	incs := make([]*incident, len(seeds))
	for i, seed := range seeds {
		path := filepath.Join(e.dir, fmt.Sprintf("incident%d.json", i))
		if incs[i], err = socialIncident(seed, sz.symptoms, 1+sz.rounds, path); err != nil {
			return nil, err
		}
	}
	out := newOutcome()
	var ss serveStats
	first := make([][]diagResult, len(incs))
	var rss []float64
	for pass := 0; pass%len(incs) != 0 || out.timed < e.opts.budget(); pass++ {
		k := pass % len(incs)
		got, peak, err := triagePass(e, incs[k], sz, pass, out, &ss)
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		out.passes++
		if pass < len(incs) {
			first[k] = got
			continue
		}
		for i, g := range got {
			if g.ok && first[k][i].ok && !sameCauses(g.causes, first[k][i].causes) {
				out.fail(fmt.Sprintf("pass %d diagnosis %d: causes differ from the incident's first pass", pass, i))
			}
		}
	}
	out.rssMB = percentile(rss, 50)

	var n, top1, rr float64
	for k, inc := range incs {
		for _, d := range first[k] {
			n++
			switch rank := firstAcceptedRank(d.causes, inc.accept); {
			case rank == 1:
				top1++
				rr++
			case rank > 1:
				rr += 1 / float64(rank)
			}
		}
	}
	out.layers["top1_rate"] = top1 / n
	out.layers["mrr"] = rr / n
	e.logf("triage accuracy over %.0f diagnoses of %d incidents: top1_rate %.4f, mrr %.4f",
		n, len(incs), out.layers["top1_rate"], out.layers["mrr"])

	tr := newTracer()
	var st diagStats
	for k, inc := range incs {
		ist, err := triageReplay(e, tr, inc, k, sz, first[k], out)
		if err != nil {
			return nil, err
		}
		st.add(ist)
	}
	if e.opts.trace {
		s := tr.summary()
		st.layerMetrics(s, out)
		s.unattributed(out)
		ss.layerMetrics(out)
		out.trace = tr
	}
	return out, nil
}

// triagePass boots murphyd, warms it up with one ingest and one diagnosis
// (the pass's set-up time), runs the timed rounds, and stops the daemon. It
// returns the certified causes of every timed diagnosis and the daemon's
// peak resident set.
func triagePass(e *env, inc *incident, sz triageSize, pass int, out *outcome, ss *serveStats) ([]diagResult, float64, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("pass%d", pass))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	d, err := startDaemon(e.opts.murphyd, daemonArgs(inc.snapshot, filepath.Join(dir, "reports"), sz.samples), filepath.Join(dir, "murphyd.log"))
	if err != nil {
		return nil, 0, err
	}
	c := newConn(d.base)
	defer c.close()
	if _, err := postIngest(c, inc.tail[0]); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up ingest: %w", err)
	}
	if _, _, err := postDiagnose(c, inc.symptoms[0]); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up diagnosis: %w", err)
	}
	out.setups = append(out.setups, time.Since(start).Seconds())

	var got []diagResult
	for r := 0; r < sz.rounds; r++ {
		t0 := time.Now()
		out.attempted++
		if el, err := postIngest(c, inc.tail[1+r]); err != nil {
			if isShed(err) {
				ss.shed++
			}
			out.fail(fmt.Sprintf("pass %d round %d ingest: %v", pass, r, err))
		} else {
			out.record("ingest", el)
		}
		sym := inc.symptoms[r%len(inc.symptoms)]
		out.attempted++
		if rec, el, err := postDiagnose(c, sym); err != nil {
			if isShed(err) {
				ss.shed++
			}
			out.fail(fmt.Sprintf("pass %d round %d diagnose %s: %v", pass, r, sym, err))
			got = append(got, diagResult{})
		} else {
			out.record("diagnose", el)
			ss.add(rec, ms(el))
			got = append(got, diagResult{ok: true, causes: certified(rec.Report)})
		}
		out.timed += time.Since(t0)
		out.ops += 2
	}
	peak, err := d.peakRSSMB()
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	if err := d.stop(); err != nil {
		return nil, 0, fmt.Errorf("stop murphyd: %w", err)
	}
	return got, peak, nil
}

// triageReplay replays an incident's first pass in process, layer by layer,
// and checks that every diagnosis certifies the same ranked causes with the
// same p-values as the daemon's report. It always runs, as the output check;
// with -trace 1 its spans and the returned counts also give the per-layer
// metrics.
func triageReplay(e *env, tr *tracer, inc *incident, k int, sz triageSize, first []diagResult, out *outcome) (diagStats, error) {
	rp, err := newReplica(tr, inc, sz.samples, filepath.Join(e.dir, fmt.Sprintf("replica%d", k)))
	if err != nil {
		return diagStats{}, err
	}
	defer rp.close()
	warm := newTracer()
	if err := rp.ingest(warm, inc.tail[0]); err != nil {
		return diagStats{}, err
	}
	if _, err := rp.diagnose(warm, inc.symptoms[0]); err != nil {
		return diagStats{}, err
	}
	rp.stats = diagStats{}
	for r := 0; r < sz.rounds; r++ {
		if err := tr.op("ingest", func() error { return rp.ingest(tr, inc.tail[1+r]) }); err != nil {
			return diagStats{}, err
		}
		sym := inc.symptoms[r%len(inc.symptoms)]
		var causes []rankedCause
		err := tr.op("diagnose", func() error {
			var err error
			causes, err = rp.diagnose(tr, sym)
			return err
		})
		if err != nil {
			return diagStats{}, err
		}
		if first[r].ok && !sameCauses(causes, first[r].causes) {
			out.fail(fmt.Sprintf("incident %d round %d (%s): traced causes %v, daemon %v", k, r, sym, causes, first[r].causes))
		}
	}
	return rp.stats, nil
}
