// Package stats provides the summary statistics and text plotting used by
// the benchmark harness to reproduce the paper's evaluation: means and
// standard deviations for Table 1, the Pearson correlation the paper uses
// as its accuracy criterion (r = 0.905, §6.1), ASCII renderings of the
// figures, and the chain diagnostics of §2.3. Those rest on one
// effective-sample-size estimator, OnlineDiag: Geyer's initial positive
// sequence over doubling batch means, scaled to the whole stream. The
// sampler's auto-stop rule feeds it draw by draw; EffectiveSampleSize,
// Geweke and DetectBurnin feed it whole traces, and read the same
// number for the same draws.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (NaN for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (NaN for fewer than two
// points).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Pearson returns the Pearson correlation coefficient between two
// equal-length series, the accuracy measure of paper §6.1.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Constant reports whether xs is one value repeated: a non-empty trace
// of zero range. Such a trace carries no information about mixing, and
// its rounded mean need not equal its values, so deviations from the
// mean are rounding residue rather than variation; the diagnostics
// check for it explicitly instead of testing a variance against zero.
func Constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return len(xs) > 0
}

// EffectiveSampleSize estimates the number of independent draws in an
// autocorrelated chain trace: the ESS of an OnlineDiag fed the trace,
// so an offline report and the online stop rule read one number. A
// constant trace of two or more draws has ESS 0.
func EffectiveSampleSize(xs []float64) float64 {
	d := NewOnlineDiag()
	for _, x := range xs {
		d.Add(x)
	}
	return d.ESS()
}

// Point is one (x, y) observation of a plotted series.
type Point struct{ X, Y float64 }

// AsciiPlot renders points as a fixed-size scatter/line chart in plain
// text, the medium the benchmark harness uses to regenerate the paper's
// figures. Width and height are interior cell counts; sensible minimums
// are enforced.
func AsciiPlot(title, xlabel, ylabel string, series map[string][]Point, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, pts := range series {
		for _, p := range pts {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if math.IsInf(minX, 1) {
		return title + "\n(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	names := sortedKeys(series)
	for si, name := range names {
		mark := markers[si%len(markers)]
		for _, p := range series[name] {
			c := int(math.Round((p.X - minX) / (maxX - minX) * float64(width-1)))
			r := height - 1 - int(math.Round((p.Y-minY)/(maxY-minY)*float64(height-1)))
			if c >= 0 && c < width && r >= 0 && r < height {
				grid[r][c] = mark
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	for si, name := range names {
		fmt.Fprintf(&sb, "  %c = %s\n", markers[si%len(markers)], name)
	}
	fmt.Fprintf(&sb, "%11.4g ┤", maxY)
	sb.Write(grid[0])
	sb.WriteByte('\n')
	for r := 1; r < height-1; r++ {
		sb.WriteString(strings.Repeat(" ", 11) + " │")
		sb.Write(grid[r])
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%11.4g ┤", minY)
	sb.Write(grid[height-1])
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%12s└%s\n", "", strings.Repeat("─", width))
	fmt.Fprintf(&sb, "%13s%-*.4g%*.4g\n", "", width/2, minX, width-width/2, maxX)
	fmt.Fprintf(&sb, "%13s%s  (y: %s)\n", "", xlabel, ylabel)
	return sb.String()
}

func sortedKeys(m map[string][]Point) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
