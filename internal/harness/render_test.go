package harness

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if got := geoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %g", got)
	}
	if got := geoMean([]float64{5}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("geomean(5) = %g", got)
	}
	if geoMean(nil) != 0 {
		t.Fatal("geomean(empty) != 0")
	}
	// Non-positive values are skipped.
	if got := geoMean([]float64{0, -1, 4}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean with skips = %g", got)
	}
}

// Property: geomean lies between min and max of positive samples.
func TestGeoMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range raw {
			v := math.Abs(x)
			if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) && v < 1e100 && v > 1e-100 {
				xs = append(xs, v)
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := geoMean(xs)
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
