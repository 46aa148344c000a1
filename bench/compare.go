package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// verdict of one workload x end-to-end metric pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the medians of a metric over a base set's runs and a
// changed set's runs. The metric regressed when the changed median is
// worse than the base median by more than bound (as a share of the base);
// when either set's own run-to-run spread — interquartile distance over
// median — exceeds the bound, the runs cannot tell, and the pairing is
// unresolved rather than unchanged. failed_share has bound 0: any
// increase is a regression.
func judge(def metricDef, base, changed []float64) (baseMed, changedMed, ratio float64, verdict string) {
	baseMed, changedMed = median(base), median(changed)
	ratio = changedMed / baseMed
	worse := (changedMed - baseMed) / baseMed
	if def.Better == "higher" {
		worse = -worse
	}
	if baseMed == 0 {
		worse = changedMed // only failed_share is ever 0
	}
	for _, xs := range [][]float64{base, changed} {
		if len(xs) >= 2 && median(xs) != 0 && spread(xs) > def.Bound {
			return baseMed, changedMed, ratio, verdictUnresolved
		}
	}
	if worse > def.Bound {
		return baseMed, changedMed, ratio, verdictRegressed
	}
	return baseMed, changedMed, ratio, verdictOK
}

func loadSet(path string) (*ResultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s ResultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs.
func (s *ResultSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Reports {
		if m, ok := r.EndToEnd[metric]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// exact collects what must be identical between two sets of one program:
// digests and exact counts, keyed by workload, seed and name.
func (s *ResultSet) exact() map[string]string {
	out := map[string]string{}
	for _, r := range s.Reports {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		out[key+" digest"] = r.Digest
		for _, name := range exactLayer {
			if m, ok := r.PerLayer[name]; ok {
				out[key+" "+name] = fmt.Sprint(m.Value)
			}
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their ratio with its base and the verdict, then every digest or exact
// count that differs. It reports whether anything regressed.
func compareFiles(w io.Writer, basePath, changedPath string) (regressed bool, err error) {
	base, err := loadSet(basePath)
	if err != nil {
		return false, err
	}
	changed, err := loadSet(changedPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base    %s  commit %s\nchanged %s  commit %s\n", basePath, base.Commit, changedPath, changed.Commit)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %6s  %s\n", "workload", "metric", "base median", "changed median", "ratio", "bound", "verdict")
	defs := slices.Concat(contractEndToEnd, scopedEndToEnd)
	for _, wl := range workloadList {
		for _, def := range defs {
			b, c := base.values(wl.Name, def.Name), changed.values(wl.Name, def.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bm, cm, ratio, v := judge(def, b, c)
			rs := fmt.Sprintf("%9.4f", ratio)
			if math.IsNaN(ratio) {
				rs = fmt.Sprintf("%9s", "-")
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %s %5.0f%%  %s (changed/base, n=%d/%d)\n",
				wl.Name, def.Name, bm, cm, rs, def.Bound*100, v, len(b), len(c))
			regressed = regressed || v == verdictRegressed
		}
	}
	be, ce := base.exact(), changed.exact()
	same := 0
	for key, bv := range be {
		if cv, ok := ce[key]; ok && cv != bv {
			fmt.Fprintf(w, "DIFFERS %s: base %s, changed %s\n", key, bv, cv)
		} else if ok {
			same++
		}
	}
	fmt.Fprintf(w, "%d digests and exact counts identical between the sets\n", same)
	return regressed, nil
}
