// Package trace provides trajectory types, discretisation and CSV I/O for
// mobility data: the glue between continuous (x, y, t) traces, such as
// the synthetic Geolife substitute of §V-A, and the discrete state
// sequences the Markov trainer and the PriSTE release loop consume.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"priste/internal/grid"
)

// Point is one raw trajectory record in user units (e.g. km on the
// experiment map) at an integer timestamp.
type Point struct {
	X, Y float64
	T    int
}

// Raw is a raw continuous trajectory ordered by time.
type Raw []Point

// Discretize maps a raw trajectory onto grid states, one state per point,
// clamping off-map points to the boundary.
func Discretize(g *grid.Grid, raw Raw) []int {
	out := make([]int, len(raw))
	for i, p := range raw {
		out[i] = g.Snap(p.X, p.Y)
	}
	return out
}

// WriteStates writes state trajectories as CSV, one trajectory per line.
func WriteStates(w io.Writer, trajs [][]int) error {
	bw := bufio.NewWriter(w)
	for _, traj := range trajs {
		for i, s := range traj {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(s)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadStates parses CSV state trajectories written by WriteStates. Blank
// lines and lines starting with '#' are skipped.
func ReadStates(r io.Reader) ([][]int, error) {
	var out [][]int
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		traj := make([]int, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			if v < 0 {
				return nil, fmt.Errorf("trace: line %d: negative state %d", line, v)
			}
			traj = append(traj, v)
		}
		out = append(out, traj)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
