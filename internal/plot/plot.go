// Package plot renders small ASCII scatter and bar charts so the figure
// harness can show Pareto fronts and speedup distributions directly in the
// terminal (the CSV outputs carry the precise data).
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one scatter series.
type Series struct {
	Name   string
	Marker byte
	X, Y   []float64
}

// Scatter renders the series into an ASCII grid of the given size. Axis
// ranges are the union of all series (plus a small margin); NaN/Inf points
// are skipped.
func Scatter(w io.Writer, title string, series []Series, width, height int, xlabel, ylabel string) {
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if !finite(x) || !finite(y) {
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if xmin > xmax || ymin > ymax {
		fmt.Fprintf(w, "%s: (no data)\n", title)
		return
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// 5% margins.
	xm := (xmax - xmin) * 0.05
	ym := (ymax - ymin) * 0.05
	xmin, xmax = xmin-xm, xmax+xm
	ymin, ymax = ymin-ym, ymax+ym

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if !finite(x) || !finite(y) {
				continue
			}
			cx := int((x - xmin) / (xmax - xmin) * float64(width-1))
			cy := int((y - ymin) / (ymax - ymin) * float64(height-1))
			row := height - 1 - cy
			if row >= 0 && row < height && cx >= 0 && cx < width {
				grid[row][cx] = s.Marker
			}
		}
	}

	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %s\n", ylabel)
	for r, line := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%8.4g", ymax)
		} else if r == height-1 {
			label = fmt.Sprintf("%8.4g", ymin)
		}
		fmt.Fprintf(w, "%s |%s|\n", label, string(line))
	}
	fmt.Fprintf(w, "%9s+%s+\n", "", strings.Repeat("-", width))
	fmt.Fprintf(w, "%9s%-*.4g%*.4g  (%s)\n", "", width/2, xmin, width-width/2, xmax, xlabel)
	for _, s := range series {
		fmt.Fprintf(w, "%9s%c = %s (%d pts)\n", "", s.Marker, s.Name, len(s.X))
	}
}

// Histogram renders counts as a vertical profile with bucket ranges.
func Histogram(w io.Writer, title string, lo, hi float64, counts []int, width int) {
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	if max == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	step := (hi - lo) / float64(len(counts))
	for i, c := range counts {
		n := c * width / max
		fmt.Fprintf(w, "  [%6.2f, %6.2f) %4d |%s\n",
			lo+float64(i)*step, lo+float64(i+1)*step, c, strings.Repeat("#", n))
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
