package service

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"hornet/internal/obs"
)

// TestEngineSnapshotFold: runs of one job snapshot their probe and deliver
// without a shared lock, so one probe's cycle counts may arrive as 100,
// 300, 200, 400. The coordinator counts 400 on /metrics and the job keeps
// showing 400 — the late 200 is ignored by both — and a new probe's first
// snapshot (the job migrated, or fell back to the local backend) adds
// whole.
func TestEngineSnapshotFold(t *testing.T) {
	srv := mustServer(t, Options{MaxJobs: 1, Budget: 1})
	defer srv.Close()
	sc := &scenario{surface: KindConfig, name: "fold", hash: "00112233aabbccdd", seed: 1}
	j := newJob(srv.jobs.nextID(), SubmitRequest{}, sc, context.Background(), time.Now())
	sink := jobSink{j: j, sched: srv.sched}
	check := func(when string, total float64, shown uint64) {
		t.Helper()
		var buf bytes.Buffer
		if err := srv.metrics.reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		got := -1.0
		for _, line := range strings.Split(buf.String(), "\n") {
			fmt.Sscanf(line, "hornet_engine_cycles_total %g", &got)
		}
		if got != total {
			t.Errorf("%s: hornet_engine_cycles_total = %v, want %v", when, got, total)
		}
		if e := j.Info().Engine; e == nil || e.Cycles != shown {
			t.Errorf("%s: job shows engine %+v, want %d cycles", when, e, shown)
		}
	}

	for _, c := range []uint64{100, 300, 200, 400} {
		sink.Engine(obs.ProbeSnapshot{Probe: 1, Cycles: c})
	}
	check("after 100, 300, 200, 400 of one probe", 400, 400)
	sink.Engine(obs.ProbeSnapshot{Probe: 2, Cycles: 50})
	check("after a new probe's 50", 450, 50)
}
