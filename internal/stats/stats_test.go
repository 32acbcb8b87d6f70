package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if !approx(Mean(xs), 2.8) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice conventions broken")
	}
}

func TestLoadImbalancePaperExample(t *testing.T) {
	// §VI example: ∆Tmax = 80s over Tavg = 100s means LI = 0.8 and, with
	// 16 CPUs, Twst = 1280s.
	// Construct 16 machine times with mean 100 and max 180.
	times := make([]float64, 16)
	for i := range times {
		times[i] = 100 - 80.0/15 // 15 machines slightly below average
	}
	times[0] = 180
	if !approx(Mean(times), 100) {
		t.Fatalf("constructed mean = %v", Mean(times))
	}
	li := LoadImbalance(times)
	if !approx(li, 0.8) {
		t.Errorf("LI = %v, want 0.8", li)
	}
	if got := WastedCPUTime(times); !approx(got, 1280) {
		t.Errorf("Twst = %v, want 1280", got)
	}
}

func TestLoadImbalanceBalanced(t *testing.T) {
	if got := LoadImbalance([]float64{50, 50, 50, 50}); got != 0 {
		t.Errorf("balanced LI = %v", got)
	}
	if got := LoadImbalance(nil); got != 0 {
		t.Errorf("empty LI = %v", got)
	}
	if got := LoadImbalance([]float64{0, 0}); got != 0 {
		t.Errorf("zero LI = %v", got)
	}
}

func TestLoadImbalanceNonNegativeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		times := make([]float64, len(raw))
		for i, r := range raw {
			times[i] = float64(r)
		}
		li := LoadImbalance(times)
		return li >= 0 && !math.IsNaN(li)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWastedCPUTimeEquivalence(t *testing.T) {
	// Twst = N*∆Tmax = LI * N * Tavg (the two §VI forms agree).
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		times := make([]float64, len(raw))
		for i, r := range raw {
			times[i] = float64(r) + 1
		}
		direct := WastedCPUTime(times)
		viaLI := LoadImbalance(times) * float64(len(times)) * Mean(times)
		return math.Abs(direct-viaLI) < 1e-6*(1+direct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
