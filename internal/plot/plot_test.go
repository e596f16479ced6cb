package plot

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestScatterRendersMarkers(t *testing.T) {
	var buf bytes.Buffer
	Scatter(&buf, "title", []Series{
		{Name: "a", Marker: 'x', X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}},
		{Name: "b", Marker: 'o', X: []float64{0.5}, Y: []float64{2}},
	}, 30, 10, "xs", "ys")
	out := buf.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "xs") || !strings.Contains(out, "ys") {
		t.Fatalf("missing labels:\n%s", out)
	}
	if !strings.Contains(out, "x") || !strings.Contains(out, "o") {
		t.Fatalf("missing markers:\n%s", out)
	}
	if !strings.Contains(out, "a (3 pts)") {
		t.Fatalf("missing legend:\n%s", out)
	}
}

func TestScatterEmptyAndDegenerate(t *testing.T) {
	var buf bytes.Buffer
	Scatter(&buf, "empty", nil, 20, 8, "x", "y")
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty scatter should say so")
	}
	buf.Reset()
	// Single point (degenerate ranges) must not panic or divide by zero.
	Scatter(&buf, "one", []Series{{Name: "s", Marker: '*', X: []float64{1}, Y: []float64{1}}}, 20, 8, "x", "y")
	if !strings.Contains(buf.String(), "*") {
		t.Fatal("single point not rendered")
	}
	buf.Reset()
	Scatter(&buf, "nan", []Series{{Name: "s", Marker: '*',
		X: []float64{math.NaN(), 1}, Y: []float64{1, math.Inf(1)}}}, 20, 8, "x", "y")
	// All points invalid -> no data.
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("NaN/Inf points should be skipped")
	}
}

func TestScatterMinimumSize(t *testing.T) {
	var buf bytes.Buffer
	Scatter(&buf, "t", []Series{{Name: "s", Marker: '*', X: []float64{0, 1}, Y: []float64{0, 1}}}, 1, 1, "x", "y")
	if len(strings.Split(buf.String(), "\n")) < 8 {
		t.Fatal("minimum dimensions not enforced")
	}
}

func TestHistogram(t *testing.T) {
	var buf bytes.Buffer
	Histogram(&buf, "h", 0, 10, []int{1, 5, 2}, 20)
	out := buf.String()
	if strings.Count(out, "|") != 3 {
		t.Fatalf("expected 3 buckets:\n%s", out)
	}
	buf.Reset()
	Histogram(&buf, "h", 0, 1, []int{0, 0}, 20)
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("all-zero histogram should say so")
	}
}
