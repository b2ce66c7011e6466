package main

import (
	"bufio"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := nearestRank(s, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	// 2000 samples: p99 is rank 1980 with 20 samples beyond it.
	v, q, ok := tailQuantile(seq(2000), 0.99, 10)
	if !ok || v != 1980 || q != 0.99 {
		t.Errorf("2000 samples: got %v (q=%v, ok=%v), want p99 = 1980", v, q, ok)
	}
	// 500 samples: p99 (rank 495) has only 5 beyond, so fall back to the
	// highest rank with 10 beyond: 490, i.e. p98.
	v, q, ok = tailQuantile(seq(500), 0.99, 10)
	if !ok || v != 490 || q != 0.98 {
		t.Errorf("500 samples: got %v (q=%v, ok=%v), want 490 at q=0.98", v, q, ok)
	}
	// Exactly 1000 samples: rank 990 leaves exactly 10 beyond.
	if v, _, ok := tailQuantile(seq(1000), 0.99, 10); !ok || v != 990 {
		t.Errorf("1000 samples: got %v (ok=%v), want 990", v, ok)
	}
	// 900 samples: rank 891 leaves 9 beyond, one short.
	if v, _, ok := tailQuantile(seq(900), 0.99, 10); !ok || v != 890 {
		t.Errorf("900 samples: got %v (ok=%v), want 890", v, ok)
	}
	// Ten samples leave no rank with ten beyond it.
	if _, _, ok := tailQuantile(seq(10), 0.99, 10); ok {
		t.Error("10 samples: want no tail percentile")
	}
}

func TestHistQuantile(t *testing.T) {
	exposition := `# HELP vcfrd_stage_seconds x
vcfrd_jobs_rejected_total 3
vcfrd_stage_seconds_bucket{stage="run",le="0.001"} 50
vcfrd_stage_seconds_bucket{stage="run",le="0.005"} 90
vcfrd_stage_seconds_bucket{stage="run",le="+Inf"} 100
`
	p, err := parseProm(bufio.NewScanner(strings.NewReader(exposition)))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.scalars["vcfrd_jobs_rejected_total"]; got != 3 {
		t.Errorf("rejected = %v, want 3", got)
	}
	run := p.buckets["run"]
	if got := histQuantile(run, 0.5); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := histQuantile(run, 0.7); got < 0.0029 || got > 0.0031 {
		t.Errorf("p70 = %v, want 0.003 (halfway through the second bucket)", got)
	}
	if got := histQuantile(run, 0.99); got != 0.005 {
		t.Errorf("p99 in the +Inf bucket = %v, want the highest finite bound", got)
	}
}
