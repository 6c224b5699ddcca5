package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	sp := c.Start("phase")
	if sp != nil {
		t.Fatal("nil collector handed out a non-nil span")
	}
	sp.Child("sub").End() // must not panic
	sp.End()
	sh := c.NewShard()
	if sh != nil {
		t.Fatal("nil collector handed out a non-nil shard")
	}
	sh.Accept(1, 4, 25, 0.5, 1e-3)
	sh.Reject(2)
	sh.Direct(3, 10)
	sh.Merge()
	c.AddDegreeClamps(3)
	if got := c.Metrics(); got.Accepts() != 0 || got.DegreeClamps != 0 {
		t.Fatalf("nil collector accumulated metrics: %+v", got)
	}
	if c.Spans() != nil {
		t.Fatal("nil collector returned spans")
	}
	if c.RenderSpans() != "" {
		t.Fatal("nil collector rendered spans")
	}
	var snap Snapshot
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
}

func TestSpanNesting(t *testing.T) {
	c := New()
	build := c.Start("build")
	tr := build.Child("tree")
	time.Sleep(time.Millisecond)
	tr.End()
	deg := build.Child("degrees")
	deg.End()
	build.End()
	eval := c.Start("eval")
	for w := 0; w < 3; w++ {
		ws := eval.ChildWorker("worker", w)
		ws.End()
	}
	eval.End()

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 root spans, got %d", len(spans))
	}
	if spans[0].Name != "build" || len(spans[0].Children) != 2 {
		t.Fatalf("build span malformed: %+v", spans[0])
	}
	if spans[0].Children[0].DurNS < int64(time.Millisecond) {
		t.Fatalf("tree child duration too small: %d", spans[0].Children[0].DurNS)
	}
	if spans[0].DurNS < spans[0].Children[0].DurNS {
		t.Fatal("parent shorter than child")
	}
	if len(spans[1].Children) != 3 {
		t.Fatalf("want 3 worker spans, got %d", len(spans[1].Children))
	}
	for w, ws := range spans[1].Children {
		if ws.Worker != w {
			t.Fatalf("worker %d labeled %d", w, ws.Worker)
		}
	}
	r := c.RenderSpans()
	for _, want := range []string{"build", "tree", "degrees", "worker 2"} {
		if !strings.Contains(r, want) {
			t.Fatalf("render missing %q:\n%s", want, r)
		}
	}
}

func TestRunningSpanSnapshot(t *testing.T) {
	c := New()
	sp := c.Start("open")
	time.Sleep(time.Millisecond)
	spans := c.Spans()
	if !spans[0].Running || spans[0].DurNS <= 0 {
		t.Fatalf("open span not reported running with elapsed time: %+v", spans[0])
	}
	sp.End()
	d := c.Spans()[0]
	if d.Running {
		t.Fatal("ended span still running")
	}
	// Double End keeps the first duration.
	first := d.DurNS
	time.Sleep(time.Millisecond)
	sp.End()
	if got := c.Spans()[0].DurNS; got != first {
		t.Fatalf("second End changed duration: %d -> %d", first, got)
	}
}

func TestShardMerge(t *testing.T) {
	c := New()
	a, b := c.NewShard(), c.NewShard()
	a.Accept(2, 4, 25, 0.4, 1e-3)
	a.Accept(3, 5, 36, 0.5, 2e-3)
	a.Reject(1)
	a.Direct(4, 7)
	b.Accept(2, 4, 25, 0.2, 3e-3)
	b.Reject(2)
	b.Direct(4, 5)
	a.Merge()
	b.Merge()
	c.AddDegreeClamps(2)

	m := c.Metrics()
	if m.Accepts() != 3 || m.Rejects() != 2 || m.PPPairs() != 12 {
		t.Fatalf("totals wrong: accepts=%d rejects=%d pp=%d", m.Accepts(), m.Rejects(), m.PPPairs())
	}
	if m.M2PTerms() != 25+36+25 {
		t.Fatalf("terms wrong: %d", m.M2PTerms())
	}
	if m.Levels[2].Accepts != 2 || m.Levels[3].Accepts != 1 {
		t.Fatalf("per-level accepts wrong: %+v", m.Levels)
	}
	if m.DegreeHist[4] != 2 || m.DegreeHist[5] != 1 {
		t.Fatalf("degree hist wrong: %v", m.DegreeHist)
	}
	if m.OpenRatio.Min != 0.2 || m.OpenRatio.Max != 0.5 {
		t.Fatalf("open ratio wrong: %+v", m.OpenRatio)
	}
	if mean := m.OpenRatio.Mean(); math.Abs(mean-(0.4+0.5+0.2)/3) > 1e-15 {
		t.Fatalf("mean wrong: %v", mean)
	}
	if want := 1e-3 + 2e-3 + 3e-3; math.Abs(m.BudgetTotal()-want) > 1e-18 {
		t.Fatalf("budget wrong: %v", m.BudgetTotal())
	}
	if m.DegreeClamps != 2 {
		t.Fatalf("clamps wrong: %d", m.DegreeClamps)
	}
	// Merge resets the shard: merging again must not double-count.
	a.Merge()
	after := c.Metrics()
	if got := after.Accepts(); got != 3 {
		t.Fatalf("double merge double-counted: %d", got)
	}
	// Metrics() is a deep copy.
	m.Levels[2].Accepts = 999
	if c.Metrics().Levels[2].Accepts == 999 {
		t.Fatal("Metrics returned shared storage")
	}
}

func TestEmptyRatioMeanIsNaN(t *testing.T) {
	var r RatioStats
	if !math.IsNaN(r.Mean()) {
		t.Fatal("empty ratio mean not NaN")
	}
}

func TestWriteJSONAndSnapshot(t *testing.T) {
	c := New()
	sp := c.Start("phase")
	sh := c.NewShard()
	sh.Accept(1, 4, 25, 0.3, 1e-4)
	sh.Merge()
	sp.End()

	path := filepath.Join(t.TempDir(), "obs.json")
	if err := WriteJSON(c, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "phase" {
		t.Fatalf("span snapshot wrong: %+v", snap.Spans)
	}
	if snap.Metrics.Accepts != 1 || snap.Metrics.DegreeHist["4"] != 1 {
		t.Fatalf("metric snapshot wrong: %+v", snap.Metrics)
	}
	if len(snap.Metrics.Levels) != 1 || snap.Metrics.Levels[0].Level != 1 {
		t.Fatalf("level rows wrong: %+v", snap.Metrics.Levels)
	}
	if snap.Metrics.OpenRatio.Mean != 0.3 {
		t.Fatalf("open ratio mean wrong: %+v", snap.Metrics.OpenRatio)
	}
}
