package geolife

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"priste/internal/grid"
	"priste/internal/trace"
)

// This file parses the *real* Geolife trajectory format so the pipeline
// runs on the actual dataset when a user has it locally (the repository
// itself ships only the synthetic substitute; see the package doc). A
// Geolife .plt file is six header lines followed by records
//
//	lat,lng,0,altitude_ft,days_since_1899,date,time
//
// e.g. "39.906631,116.385564,0,492,39745.1200347222,2008-10-24,02:52:51".

// PLTPoint is one parsed Geolife record.
type PLTPoint struct {
	Lat, Lng float64
	Time     time.Time
}

// ParsePLT reads one .plt file. Malformed records are rejected with the
// line number; the six-line header is skipped when present.
func ParsePLT(r io.Reader) ([]PLTPoint, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var out []PLTPoint
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 7 {
			if line <= 6 {
				continue // header block
			}
			return nil, fmt.Errorf("geolife: line %d: want 7 fields, got %d", line, len(fields))
		}
		lat, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if err != nil {
			if line <= 6 {
				continue
			}
			return nil, fmt.Errorf("geolife: line %d: latitude: %w", line, err)
		}
		lng, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("geolife: line %d: longitude: %w", line, err)
		}
		if lat < -90 || lat > 90 || lng < -180 || lng > 180 {
			return nil, fmt.Errorf("geolife: line %d: coordinates (%g, %g) out of range", line, lat, lng)
		}
		ts, err := time.Parse("2006-01-02 15:04:05",
			strings.TrimSpace(fields[5])+" "+strings.TrimSpace(fields[6]))
		if err != nil {
			return nil, fmt.Errorf("geolife: line %d: timestamp: %w", line, err)
		}
		out = append(out, PLTPoint{Lat: lat, Lng: lng, Time: ts})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Projector converts WGS-84 coordinates to local kilometre offsets with an
// equirectangular projection around a reference point — accurate to well
// under a cell width over city-scale extents.
type Projector struct {
	RefLat, RefLng float64
	cosRef         float64
}

// NewProjector centres the projection on the given reference point.
func NewProjector(refLat, refLng float64) (*Projector, error) {
	if refLat < -90 || refLat > 90 || refLng < -180 || refLng > 180 {
		return nil, fmt.Errorf("geolife: reference (%g, %g) out of range", refLat, refLng)
	}
	return &Projector{RefLat: refLat, RefLng: refLng, cosRef: math.Cos(refLat * math.Pi / 180)}, nil
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// ToKm returns the (x, y) kilometre offsets of a point from the reference.
func (p *Projector) ToKm(lat, lng float64) (x, y float64) {
	x = (lng - p.RefLng) * math.Pi / 180 * earthRadiusKm * p.cosRef
	y = (lat - p.RefLat) * math.Pi / 180 * earthRadiusKm
	return x, y
}

// ResampleOptions controls conversion of PLT points to fixed-interval raw
// trajectories.
type ResampleOptions struct {
	// Interval is the sampling period (Geolife logs every 1–5 s; the
	// paper's experiments use coarse timestamps).
	Interval time.Duration
	// Gap splits a trajectory when consecutive records are further apart
	// than this (default 6×Interval).
	Gap time.Duration
}

// Resample converts parsed records into fixed-interval raw trajectories in
// km around the centroid of the data, splitting at temporal gaps. The
// resulting traces feed trace.Discretize and markov.Train exactly like the
// synthetic generator's output.
func Resample(points []PLTPoint, opt ResampleOptions) ([]trace.Raw, *Projector, error) {
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("geolife: no points")
	}
	if opt.Interval <= 0 {
		return nil, nil, fmt.Errorf("geolife: interval must be positive")
	}
	if opt.Gap <= 0 {
		opt.Gap = 6 * opt.Interval
	}
	var latSum, lngSum float64
	for _, p := range points {
		latSum += p.Lat
		lngSum += p.Lng
	}
	proj, err := NewProjector(latSum/float64(len(points)), lngSum/float64(len(points)))
	if err != nil {
		return nil, nil, err
	}
	var trajs []trace.Raw
	var cur trace.Raw
	nextSample := points[0].Time
	step := 0
	flush := func() {
		if len(cur) > 1 {
			trajs = append(trajs, cur)
		}
		cur = nil
		step = 0
	}
	for i, p := range points {
		if i > 0 {
			dt := p.Time.Sub(points[i-1].Time)
			if dt < 0 {
				return nil, nil, fmt.Errorf("geolife: timestamps not monotone at record %d", i)
			}
			if dt > opt.Gap {
				flush()
				nextSample = p.Time
			}
		}
		if p.Time.Before(nextSample) {
			continue
		}
		x, y := proj.ToKm(p.Lat, p.Lng)
		cur = append(cur, trace.Point{X: x, Y: y, T: step})
		step++
		nextSample = p.Time.Add(opt.Interval)
	}
	flush()
	if len(trajs) == 0 {
		return nil, nil, fmt.Errorf("geolife: no trajectory long enough after resampling")
	}
	return trajs, proj, nil
}

// DiscretizeAll maps raw km trajectories onto a grid whose origin is the
// lower-left of the data's bounding box, returning the state trajectories
// plus the grid used. The grid side length adapts to the data extent with
// the given cell size; cells are clamped to at most maxSide per axis to
// keep the state space manageable.
func DiscretizeAll(trajs []trace.Raw, cellKm float64, maxSide int) ([][]int, *grid.Grid, error) {
	if len(trajs) == 0 {
		return nil, nil, fmt.Errorf("geolife: no trajectories")
	}
	if cellKm <= 0 {
		return nil, nil, fmt.Errorf("geolife: cell size must be positive")
	}
	if maxSide <= 0 {
		maxSide = 32
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, tr := range trajs {
		for _, p := range tr {
			minX = math.Min(minX, p.X)
			minY = math.Min(minY, p.Y)
			maxX = math.Max(maxX, p.X)
			maxY = math.Max(maxY, p.Y)
		}
	}
	w := int(math.Ceil((maxX-minX)/cellKm)) + 1
	h := int(math.Ceil((maxY-minY)/cellKm)) + 1
	if w > maxSide {
		w = maxSide
	}
	if h > maxSide {
		h = maxSide
	}
	g, err := grid.New(w, h, cellKm)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]int, len(trajs))
	for i, tr := range trajs {
		shifted := make(trace.Raw, len(tr))
		for j, p := range tr {
			shifted[j] = trace.Point{X: p.X - minX, Y: p.Y - minY, T: p.T}
		}
		out[i] = trace.Discretize(g, shifted)
	}
	return out, g, nil
}
