package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// WritePrometheus renders the recorder's data in the Prometheus text
// exposition format under the murphy_ namespace: one counter family per
// pipeline counter, per-stage span totals, and the power-of-two histograms.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "# TYPE murphy_%s_total counter\nmurphy_%s_total %d\n", name, name, snap.Counters[name])
	}
	b.WriteString("# TYPE murphy_stage_calls_total counter\n")
	for _, st := range snap.Stages {
		fmt.Fprintf(&b, "murphy_stage_calls_total{stage=%q} %d\n", st.Stage, st.Calls)
	}
	b.WriteString("# TYPE murphy_stage_wall_seconds_total counter\n")
	for _, st := range snap.Stages {
		fmt.Fprintf(&b, "murphy_stage_wall_seconds_total{stage=%q} %g\n", st.Stage, st.Wall.Seconds())
	}
	b.WriteString("# TYPE murphy_stage_cpu_seconds_total counter\n")
	for _, st := range snap.Stages {
		fmt.Fprintf(&b, "murphy_stage_cpu_seconds_total{stage=%q} %g\n", st.Stage, st.CPU.Seconds())
	}
	for _, h := range snap.Hists {
		fmt.Fprintf(&b, "# TYPE murphy_%s histogram\n", h.Name)
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "murphy_%s_bucket{le=\"%d\"} %d\n", h.Name, bk.Le, bk.Count)
		}
		fmt.Fprintf(&b, "murphy_%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count)
		fmt.Fprintf(&b, "murphy_%s_sum %d\nmurphy_%s_count %d\n", h.Name, h.Sum, h.Name, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the Prometheus text exposition of the recorder.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WritePrometheus(w)
	})
}

// NewServeMux builds the long-running-process observability endpoint:
//
//	/metrics     Prometheus text exposition
//	/stats       JSON snapshot (the same schema as Snapshot)
//	/debug/vars  expvar (process-global)
//	/debug/pprof/...  net/http/pprof (only with withPprof)
//
// Mount it on a side port for always-on deployments (Sage-style continuous
// diagnosis) so stage timings, counters, and profiles are scrapeable while
// diagnoses run.
func NewServeMux(r *Recorder, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(r.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Table renders the per-stage breakdown and counters as an operator-facing
// text table.
func (s Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-8s %6s %12s %12s %10s\n", "stage", "calls", "wall", "cpu", "wall/call")
	for _, st := range s.Stages {
		if st.Calls == 0 {
			continue
		}
		per := time.Duration(0)
		if st.Calls > 0 {
			per = st.Wall / time.Duration(st.Calls)
		}
		fmt.Fprintf(&b, "  %-8s %6d %12s %12s %10s\n",
			st.Stage, st.Calls, fmtDur(st.Wall), fmtDur(st.CPU), fmtDur(per))
	}
	names := make([]string, 0, len(s.Counters))
	for name, v := range s.Counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-28s %12d\n", name, s.Counters[name])
	}
	return b.String()
}

// fmtDur rounds a duration for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}
