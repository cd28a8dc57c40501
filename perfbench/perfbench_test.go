package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/value"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) dist {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return newDist(xs)
	}
	for _, tc := range []struct {
		n         int
		wantV     float64
		wantPct   float64
		wantAbove int
	}{
		{n: 2000, wantV: 1980, wantPct: 99, wantAbove: 20},
		{n: 1000, wantV: 990, wantPct: 99, wantAbove: 10},
		{n: 200, wantV: 190, wantPct: 95, wantAbove: 10},
		{n: 40, wantV: 30, wantPct: 75, wantAbove: 10},
		{n: 15, wantV: 15, wantPct: 100, wantAbove: 0}, // too few: the maximum
	} {
		v, pct := seq(tc.n).tail()
		if v != tc.wantV || pct != tc.wantPct {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, pct, tc.wantV, tc.wantPct)
		}
		if above := tc.n - int(v); above != tc.wantAbove {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, above, tc.wantAbove)
		}
	}
	if v, pct := newDist(nil).tail(); v != 0 || pct != 0 {
		t.Errorf("empty sample: tail = %v at p%v, want 0", v, pct)
	}
	if m := newDist([]float64{4, 1, 3, 2}).median(); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsCoveredUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	parent := iv(0, 100)
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{iv(10, 20), iv(50, 60)}, 80 * time.Millisecond},
		{"overlapping count once", []interval{iv(10, 30), iv(20, 40)}, 70 * time.Millisecond},
		{"clipped to the parent", []interval{iv(-10, 5), iv(90, 120)}, 85 * time.Millisecond},
		{"nested", []interval{iv(10, 60), iv(20, 30)}, 50 * time.Millisecond},
		{"outside", []interval{iv(200, 300)}, 100 * time.Millisecond},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCPUPerUpdate(t *testing.T) {
	if got := cpuPerUpdate(time.Second, 3*time.Second, 1000); got != 2000 {
		t.Errorf("cpuPerUpdate = %v µs, want 2000", got)
	}
	if got := cpuPerUpdate(0, time.Second, 0); got != 0 {
		t.Errorf("cpuPerUpdate with no updates = %v, want 0", got)
	}
}

// TestStreamStaysBounded replays the stream into a multiset and checks
// that no tuple goes negative, the live state stays at the window size,
// and finalData describes exactly the replayed database.
func TestStreamStaysBounded(t *testing.T) {
	const window = 50
	f := newFixture(7, 2000, window, mix{inventory: 0.9, item: 0.05, weather: 0.05})
	count := map[string]int{}
	key := func(rel string, tup value.Tuple) string { return rel + "/" + tup.Encode() }
	for rel, ts := range f.initData() {
		for _, tup := range ts {
			count[key(rel, tup)]++
		}
	}
	base := 0
	for _, r := range f.db.Relations {
		base += len(r.Tuples)
	}
	for chunk := 0; chunk < 40; chunk++ {
		for _, u := range f.stream.next(nil, 37) {
			k := key(u.Rel, u.Tuple)
			count[k] += u.Mult
			if count[k] < 0 {
				t.Fatalf("chunk %d: %s went negative", chunk, k)
			}
		}
		live := 0
		for _, n := range count {
			live += n
		}
		if extra := live - base; extra != window && extra != window+1 {
			t.Fatalf("chunk %d: %d live stream tuples, want %d or %d", chunk, extra, window, window+1)
		}
	}
	want := map[string]int{}
	for rel, ts := range f.finalData() {
		for _, tup := range ts {
			want[key(rel, tup)]++
		}
	}
	for k, n := range count {
		if want[k] != n {
			t.Fatalf("%s: replayed multiplicity %d, finalData has %d", k, n, want[k])
		}
	}
}

// smoke runs one workload at a tiny size.
func smoke(t *testing.T, workload string, corrupt, trace bool) (*resultJSON, error) {
	t.Helper()
	return run(options{
		workload: workload, seed: 3, seconds: 0.4, rows: 2000, window: 100, setups: 2,
		corrupt: corrupt, trace: trace, workDir: t.TempDir(),
	})
}

func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := smoke(t, name, false, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("result %+v", res)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("traced run lacks %s", m.name)
				}
			}
			if r := res.Metrics["trace.overhead_ratio"].Value; r <= 0 {
				t.Errorf("trace.overhead_ratio = %v", r)
			}
		})
	}
}

func TestCorruptedExpectationFails(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := smoke(t, name, true, false)
			if err == nil || !strings.Contains(err.Error(), "correctness") {
				t.Fatalf("corrupted expectation: result %+v, err %v; want a correctness failure", res, err)
			}
		})
	}
}

func TestEndToEndMetricsReported(t *testing.T) {
	res, err := smoke(t, "retailer-firehose", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, n := range endToEnd {
		m, ok := res.Metrics[n]
		if !ok || m.Unit != units[n] || m.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", n, m, units[n])
		}
	}
}
